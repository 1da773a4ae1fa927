"""The public surface: each name has one module that exports it, and the
package root exports nothing but its version."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path
from types import ModuleType

import fiblucas

# every module but the CLI front end and `python -m` entry point
LIBRARY = ["derivops", "dixmier", "exactnum", "families", "identity", "intertwine", "polyring"]


def test_every_library_module_is_listed():
    found = {m.name for m in pkgutil.iter_modules(fiblucas.__path__)}
    assert found == {*LIBRARY, "cli", "__main__"}


def test_each_exported_name_exists_in_its_module_and_nowhere_else():
    owners = Counter()
    for name in LIBRARY:
        mod = importlib.import_module(f"fiblucas.{name}")
        assert len(set(mod.__all__)) == len(mod.__all__), name
        missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
        assert not missing, (name, missing)
        owners.update(mod.__all__)
    assert [attr for attr, count in owners.items() if count > 1] == []


def test_package_root_exports_only_its_version():
    importlib.import_module("fiblucas.cli")  # binds the submodules on the package
    assert not hasattr(fiblucas, "__all__")
    public = [n for n, v in vars(fiblucas).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)]
    assert public == []
    assert fiblucas.__version__ == "0.1.0"


def test_each_limit_is_assigned_in_exactly_one_module():
    # a _MAX_* limit has one home, assigned once; other modules import it
    homes = {}
    for path in sorted(Path(fiblucas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id.startswith("_MAX_"):
                    homes.setdefault(node.id, []).append(path.stem)
    assert homes["_MAX_INDEX"] == ["polyring"]
    assert {name: mods for name, mods in homes.items() if len(mods) != 1} == {}
