"""What the package exports and what each CLI command loads.

The package resolves its exported names on first access, and each CLI
command imports only the library modules it uses.  The module sets are read
from `python -X importtime` children, which list every module a process
imports; they are deterministic, so a top-level import that would make every
command load the whole library fails here.
"""

import ast
import collections
import contextlib
import importlib
import inspect
import io
import os
import subprocess
import sys
import tokenize
import typing
from pathlib import Path

import pytest

import hmideals

ROOT = Path(__file__).resolve().parents[1]
SPECTRUM_MODULES = {"hmideals.monomial", "hmideals.vspectrum", "hmideals.constructors"}
COMPUTATION_MODULES = SPECTRUM_MODULES | {"hmideals.graded", "hmideals.resolution"}


def loaded_modules(*args):
    """The hmideals modules a `python -X importtime *args` child imports."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, {n for n in names if n.split(".")[0] == "hmideals"}


def cli_modules(argv):
    """(exit code, library modules) of one `python -m hmideals.cli` child;
    the package and cli itself, which runs as __main__, are left out."""
    code, names = loaded_modules("-m", "hmideals.cli", *argv.split())
    return code, names - {"hmideals", "hmideals.cli"}


def test_bare_import_loads_no_submodule():
    code, names = loaded_modules("-c", "import hmideals")
    assert code == 0 and names == {"hmideals"}


@pytest.mark.parametrize("argv", [
    "gdim --n 3 --m 3 --k 1 --alpha 0",
    "hodge --ambient-dim 4 --degree 5 --level 2 --eigen 2/5",
    "criteria nontriviality --n 5 --d 1 --m 2",
    "criteria symbolic-power --codim 3 --m 2 --level 2 --alpha=-1/2 --json",
])
def test_graded_commands(argv):
    assert cli_modules(argv) == (
        0, {"hmideals.errors", "hmideals.rat", "hmideals.frozen", "hmideals.graded"})


@pytest.mark.parametrize("argv", [
    "resolution --builtin hyperelliptic_theta(5) bounds --json",
    "resolution --builtin determinantal(3) lct",
])
def test_builtin_resolution_skips_spectrum_modules(argv):
    code, names = cli_modules(argv)
    assert code == 0 and "hmideals.resolution" in names
    assert not names & SPECTRUM_MODULES


@pytest.mark.parametrize("argv", [
    "spectrum --class diagonal --params 2,x",
    "ideal --class diagonal --params 2,3 --k 1 --alpha 1/0",
    "criteria symbolic-power --codim 3 --m 2 --level 2 --alpha x",
    "resolution --builtin secant(3) weight-level --alpha x",
    "gdim --n 3 --m 3",
])
def test_rejected_argv_loads_no_computation_module(argv):
    code, names = cli_modules(argv)
    assert code == 2 and not names & COMPUTATION_MODULES


def test_submodule_resolves_after_bare_import():
    """The package's lazy imports are listed too, so a top-level `from .
    import resolution` in cli would show in the module sets above."""
    code, names = loaded_modules(
        "-c", "import hmideals; assert hmideals.graded.gdim_ordinary(3, 3, 1, 0) == 1")
    assert code == 0 and names == {"hmideals", "hmideals.frozen", "hmideals.graded"}


def test_exports_are_their_home_objects():
    for module, exported in hmideals._EXPORTS.items():
        home = importlib.import_module(f"hmideals.{module}")
        for name in exported:
            assert getattr(hmideals, name) is getattr(home, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from hmideals import *", namespace)
    assert set(hmideals.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(hmideals, name) for name in hmideals.__all__)
    assert set(hmideals.__all__) <= set(dir(hmideals))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="nosuch"):
        hmideals.nosuch


def _references(path):
    """How often a source refers to each name, read as text: identifiers
    other than the one a def, a class or a top-level assignment binds, and
    string literals that spell an identifier (bench/tracing.py names the
    functions it wraps that way)."""
    counts = collections.Counter()
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type == tokenize.NAME:
            binds = (before and before.string in ("def", "class")
                     or token.start[1] == 0 and after.string == "=")
            counts[token.string] += not binds
        elif token.type == tokenize.STRING:
            with contextlib.suppress(ValueError, SyntaxError):
                value = ast.literal_eval(token.string)
                if isinstance(value, str) and value.isidentifier():
                    counts[value] += 1
    return counts


def test_every_export_has_a_user():
    """Each exported name is used outside its own definition: by the
    library, the benchmark, the scripts or the acceptance criteria (the
    unit tests alone do not keep a name in the library)."""
    sources = [*(ROOT / "src" / "hmideals").glob("*.py"), *(ROOT / "bench").glob("*.py"),
               *(ROOT / "scripts").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = sum((_references(path) for path in sources if path.name != "__init__.py"),
               collections.Counter())
    assert [name for name in hmideals.__all__ if not used[name]] == []


def _callables(module):
    """The functions and methods module defines, properties' getters included."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("module", sorted(hmideals._EXPORTS))
def test_type_hints_resolve(module):
    """Every annotation names something its module can see at run time, so
    typing.get_type_hints works on each function and method."""
    home = importlib.import_module(f"hmideals.{module}")
    found = list(_callables(home))
    assert found
    for func in found:
        typing.get_type_hints(func)
