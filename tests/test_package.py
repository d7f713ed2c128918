import ast
from pathlib import Path

import qdisco

# private helper modules whose names every module may import
HELPER_MODULES = {"_seeds", "_graphs", "_fields"}


def test_every_export_resolves():
    missing = [name for name in qdisco.__all__ if not hasattr(qdisco, name)]
    assert missing == []


def private_imports(source: str) -> list[str]:
    """``module.name`` for each private name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0:
            if module != "qdisco" and not module.startswith("qdisco."):
                continue
            module = module.removeprefix("qdisco").removeprefix(".")
        for alias in node.names:
            private = alias.name.startswith("_") and not alias.name.startswith("__")
            if private and (module or alias.name) not in HELPER_MODULES:
                found.append(f"{module}.{alias.name}")
    return found


def test_no_module_imports_a_siblings_private_name():
    package = Path(qdisco.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := private_imports(path.read_text()))
    }
    assert found == {}


def test_private_import_check_sees_each_form():
    source = (
        "from .compiler import _ranked_sets, best_regions\n"
        "from qdisco.simulator import _split_shots\n"
        "from . import _hidden, __version__\n"
        "from ._graphs import _helper\n"
        "from . import _seeds\n"
        "from numpy import _private\n"
    )
    assert private_imports(source) == ["compiler._ranked_sets", "simulator._split_shots", "._hidden"]


def recursive_closures(source: str) -> list[str]:
    """Each function defined inside another function whose body names itself.

    Such a closure holds a cell that refers back to the function, a reference
    cycle, so every call's frame lives until the cyclic collector runs.
    """
    functions = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    nested = {inner for outer in functions for inner in ast.walk(outer) if inner is not outer}
    return sorted(
        inner.name
        for inner in functions
        if inner in nested
        and any(
            isinstance(node, ast.Name) and node.id == inner.name
            for statement in inner.body
            for node in ast.walk(statement)
        )
    )


def test_no_function_is_a_recursive_closure():
    package = Path(qdisco.__file__).parent
    found = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := recursive_closures(path.read_text()))
    }
    assert found == {}


def test_recursive_closure_check_sees_each_form():
    source = (
        "def outer(n):\n"
        "    def walk(i):\n"
        "        return walk(i - 1) if i else outer\n"
        "    async def poll():\n"
        "        await poll()\n"
        "    def leaf():\n"
        "        return outer(n - 1)\n"
        "    def deep():\n"
        "        def inner(i):\n"
        "            return [inner(i - 1)]\n"
        "        return inner\n"
        "    class Node:\n"
        "        def visit(self):\n"
        "            return self.visit()\n"
        "    return walk, poll, leaf, deep, Node\n"
        "def top(n):\n"
        "    return top(n - 1)\n"
        "class Tree:\n"
        "    def size(self):\n"
        "        def count(node):\n"
        "            return sum(count(c) for c in node)\n"
        "        return count(self)\n"
    )
    assert recursive_closures(source) == ["count", "inner", "poll", "walk"]
