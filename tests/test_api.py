"""Export lists: every name a module's ``__all__`` lists, and every name the
package re-exports, resolves, so deleting a function cannot leave a stale
export behind."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import condgauss

MODULES = sorted(m.name for m in pkgutil.iter_modules(condgauss.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"condgauss.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_reexports_resolve():
    """Each ``from .module import name`` of the package resolves to the
    module's own object, and the module lists the name in ``__all__``."""
    tree = ast.parse(Path(condgauss.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"condgauss.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(condgauss, alias.asname or alias.name) is getattr(module, alias.name)


def test_only_the_batch_function_builds_a_tape():
    """A training step's tape is built in one place, ``trainer.batch_gradients``:
    no other function of the package constructs a ``grad.Tape``, and no
    other module imports ``grad``."""
    builders, importers = [], []
    for path in sorted(Path(condgauss.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                paths = [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                paths = [a.name for a in node.names]
            else:
                continue
            if any("grad" in p.split(".") for p in paths):
                importers.append(path.stem)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                callee = node.func if isinstance(node, ast.Call) else None
                name = getattr(callee, "attr", getattr(callee, "id", None))
                if name == "Tape":
                    builders.append(f"{path.stem}.{func.name}")
    assert builders == ["trainer.batch_gradients"]
    assert importers == ["trainer"]
