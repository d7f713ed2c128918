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
