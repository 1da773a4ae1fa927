"""The public surface: each name has one module that exports it, and the
package root exports nothing but its version."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path
from types import ModuleType

import pytest

import fiblucas
from fiblucas.polyring import Poly

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


_FLA, _FL, _ALAF = "fibonacci, lucas, appell", "fibonacci, lucas", "AL, AF"

# every public entry point that takes a kind, the kinds it takes, and a
# known kind it does not take
_KIND_TAKERS = [
    ("families", "family_poly", lambda f, k: f(k, 3), _FLA, "AL"),
    ("families", "family_values", lambda f, k: f(k, 3, [2]), _FL, "appell"),
    ("families", "derivative_rhs", lambda f, k: f(k, 3), _FL, "appell"),
    ("families", "generating_function_coeffs", lambda f, k: f(k, 4), _FL, "appell"),
    ("derivops", "builtin_image", lambda f, k: f(k, 3), _FLA, "AL"),
    ("derivops", "Derivation", lambda f, k: f(k), _FLA, "AL"),
    ("dixmier", "closed_power_on_generator", lambda f, k: f(k, 3, 1), _FL, "appell"),
    ("dixmier", "cayley_closed", lambda f, k: f(k, 4), _FL, "appell"),
    ("dixmier", "cayley_constructive", lambda f, k: f(k, 4), _FL, "appell"),
    ("identity", "phi_subst", lambda f, k: f(k, Poly.gen(0)), _FL, "appell"),
    ("identity", "conjecture_scan", lambda f, k: f(k, 4), _FL, "appell"),
    ("identity", "poly_to_latex", lambda f, k: f(Poly.gen(0), k), _FL, "appell"),
    ("intertwine", "b_sequence", lambda f, k: f(k, 3), _ALAF, "lucas"),
    ("intertwine", "alpha", lambda f, k: f(k, 5, 1), _ALAF, "lucas"),
    ("intertwine", "alpha_rows", lambda f, k: f(k, 1, 4), _ALAF, "lucas"),
    ("intertwine", "psi", lambda f, k: f(k, 4), _ALAF, "lucas"),
]


@pytest.mark.parametrize("module, name, call, allowed, known", _KIND_TAKERS,
                         ids=[entry[1] for entry in _KIND_TAKERS])
def test_every_kind_taking_entry_point_refuses_a_kind_with_one_message(
        module, name, call, allowed, known):
    # one check, families._check_kind, names the kinds the entry point takes
    fn = getattr(importlib.import_module(f"fiblucas.{module}"), name)
    for kind in ("pell", known):
        with pytest.raises(ValueError) as err:
            call(fn, kind)
        assert str(err.value) == f"kind must be one of {allowed}, got {kind!r}"
