import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mvop


def test_library_has_no_bare_asserts():
    # python -O strips assert statements, so a guard written as one vanishes
    found = []
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare assert statements: {found}"


def test_library_parses_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10, so no module may use
    # syntax that a 3.10 parser rejects
    pyproject = Path(mvop.__file__).parents[2] / "pyproject.toml"
    assert re.search(r'^requires-python = ">=3\.10"$', pyproject.read_text(), re.MULTILINE)
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_library_raises_no_assertion_error():
    # library guards raise ArithmeticError or ValueError; AssertionError is for tests
    found = []
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"raise AssertionError in the library: {found}"


def test_library_has_no_floats():
    # the library computes on int and Fraction only: no float or complex
    # literal and no float(...) call; naming float in an isinstance check,
    # to reject one, stays allowed
    found = []
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
            if literal or call:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"floats in the library: {found}"


def test_only_memo_keeps_the_latest_family():
    # what one parameter set fixes lives in a Family and dies with it: its
    # weight and two operators are the only cached attributes in the library,
    # and the one module-level memo holds only the latest Family
    uses = []
    for path in sorted(Path(mvop.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = {}  # id of a decorator, or of the callee of an assigned call -> (owner, source)
        for scope in [tree] + [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
            prefix = f"{scope.name}." if isinstance(scope, ast.ClassDef) else ""
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    for d in node.decorator_list:
                        owners[id(d.func if isinstance(d, ast.Call) else d)] = (prefix + node.name, ast.unparse(d))
                elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    target = ast.unparse(node.targets[0])
                    owners[id(node.value.func)] = (prefix + target, ast.unparse(node.value.func))
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name in ("lru_cache", "cache", "cached_property"):
                uses.append((path.name,) + owners.get(id(node), (None, ast.unparse(node))))
    assert sorted(uses) == [
        ("hyper.py", "Family.companion", "cached_property"),
        ("hyper.py", "Family.hyper", "cached_property"),
        ("hyper.py", "Family.weight", "cached_property"),
        ("hyper.py", "family", "lru_cache(maxsize=1)"),
    ]


def test_every_exported_name_resolves():
    # a removal must take its __all__ entries and re-exports with it; the
    # package's own names resolve on first use
    modules = [mvop] + [importlib.import_module(f"mvop.{info.name}") for info in pkgutil.iter_modules(mvop.__path__)]
    stale = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert not stale, f"__all__ names that do not resolve: {stale}"


def test_package_names_are_their_home_objects():
    listed = set(dir(mvop))
    for name in mvop.__all__:
        value = getattr(mvop, name)
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value and name in home.__all__, name
        assert name in listed, name


def test_each_closed_form_has_one_public_name():
    # the Fraction views of the closed forms are gone: callers read the integer
    # forms through MatPoly.coeff, and C, U, V, Q0, Q1, R0 and R1 as
    # coefficients of hyper_operator and companion_operator
    gone = ("kernel_vector", "leading_coefficient", "monic_eigenvalue", "eigenvalue_matrix")
    gone += ("recursion_matrix", "drift_matrix", "potential_matrix", "companion_blocks")
    gone += ("eigen_table", "EigenPair")  # the Fraction view of slot_table
    for name in gone:
        assert name not in mvop.__all__
        assert not hasattr(mvop.model, name) and not hasattr(mvop.hyper, name)
        with pytest.raises(AttributeError, match=f"'mvop' has no attribute '{name}'"):
            getattr(mvop, name)
    assert mvop.kernel_matrix is mvop.hyper.kernel_matrix
    assert mvop.monic_matrix is mvop.model.monic_matrix


def test_package_rejects_unknown_names():
    assert not hasattr(mvop, "no_such_name")
    with pytest.raises(AttributeError, match="'mvop' has no attribute 'no_such_name'"):
        mvop.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mvop import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mvop.__all__)
    assert all(namespace[name] is getattr(mvop, name) for name in mvop.__all__)


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # every launch imports the CLI before it does any work, and these modules
    # (with ast, dis and tokenize behind inspect) only cost start-up time; -S
    # keeps site hooks from loading typing on their own
    src = str(Path(mvop.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import mvop.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


LIBRARY = ["mvop.exact", "mvop.linalg", "mvop.matpoly", "mvop.model"]
CLI_FLAGS = "'--alpha=1/2', '--beta=3/2', '--k=1', '--ell=2', '--max-w=2'"


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import mvop", []),
        ("import mvop; p = mvop.Params(0, 1, 1, 1); mvop.hyper_operator(p); mvop.companion_operator(p)", LIBRARY),
        # linalg is not a public name, so the package imports it as a submodule
        ("from mvop import linalg", ["mvop.exact", "mvop.linalg"]),
        ("import mvop; mvop.gram_block(mvop.Params(0, 1, 1, 1), 1, 1)", LIBRARY + ["mvop.hyper"]),
        # the list commands write their JSON records themselves, so only verify's JSON loads json
        (f"from mvop.cli import main; main(['polys', {CLI_FLAGS}])", ["mvop.cli"] + LIBRARY + ["mvop.hyper"]),
        (f"from mvop.cli import main; main(['gram', {CLI_FLAGS}])", ["mvop.cli"] + LIBRARY + ["mvop.hyper"]),
        (
            f"from mvop.cli import main; main(['polys', {CLI_FLAGS}, '--format=csv'])",
            ["csv", "mvop.cli"] + LIBRARY + ["mvop.hyper"],
        ),
        (f"from mvop.cli import main; main(['table', {CLI_FLAGS}])", ["mvop.cli"] + LIBRARY + ["mvop.hyper"]),
        (f"from mvop.cli import main; main(['collisions', {CLI_FLAGS}])", ["mvop.cli"] + LIBRARY + ["mvop.hyper"]),
        (
            f"from mvop.cli import main; main(['collisions', {CLI_FLAGS}, '--format=csv'])",
            ["csv", "mvop.cli"] + LIBRARY + ["mvop.hyper"],
        ),
        (
            f"from mvop.cli import main; main(['verify', {CLI_FLAGS}])",
            ["json", "mvop.cli"] + LIBRARY + ["mvop.hyper", "mvop.verify"],
        ),
        (
            f"from mvop.cli import main; main(['verify', {CLI_FLAGS}, '--format=csv'])",
            ["csv", "mvop.cli"] + LIBRARY + ["mvop.hyper", "mvop.verify"],
        ),
    ],
)
def test_each_path_loads_only_the_modules_it_runs(code, loaded):
    # a launch compiles every module it imports, so the package resolves its
    # names on first use and the CLI imports the checks, csv and json only
    # where they run; -S keeps site hooks from importing modules on their own
    src = str(Path(mvop.__file__).parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); {code}; "
        "print(sorted(m for m in sys.modules if m.startswith('mvop.') or m in ('csv', 'json')))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True)
    assert ast.literal_eval(out.stdout.splitlines()[-1]) == sorted(loaded)
