"""Package metadata and source hygiene."""

import ast
import importlib
from pathlib import Path

import pytest

import polentsim
from polentsim import errors
from polentsim.spectral import FrequencyGrid


def _project():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]


def test_version_matches_pyproject():
    assert polentsim.__version__ == _project()["version"]


def test_runtime_dependency_is_numpy_only():
    assert [d.split(">")[0] for d in _project()["dependencies"]] == ["numpy"]


def test_no_unused_imports():
    """Every name a module imports is referenced in that module."""
    unused = []
    for path in sorted((Path(polentsim.__file__).parent).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert unused == []


def _opens_text_for_reading(call):
    """Whether ``call`` is ``open``/``.open``/``.read_text`` of a text file
    for reading: no mode, or a mode without b, w, a, x or +."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name == "read_text":
        return True
    if name != "open":
        return False
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    if not modes:
        return True
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and set(mode.value) & set("bwax+"))


def test_text_files_are_read_by_the_shared_reader():
    """Only the shared reader in errors.py opens a text file for reading,
    and only it and read_jsa call its opener ``text_file``, so that every
    data file meets one number grammar and one error form."""
    readers = set()
    for path in sorted((Path(polentsim.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}  # node -> the innermost function that holds it
        for func in ast.walk(tree):  # outer functions come first
            if isinstance(func, ast.FunctionDef):
                scopes.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and (
                _opens_text_for_reading(node)
                or getattr(node.func, "id", None) == "text_file"
            ):
                readers.add((path.name, scopes.get(node, "<module>"), ast.unparse(node.func)))
    assert readers == {
        ("errors.py", "text_file", "open"),
        ("errors.py", "numbered_lines", "text_file"),
        ("spectral.py", "read_jsa", "text_file"),
    }


def test_one_digest_path():
    """In the package only the sidecar's digest helpers in spectral.py,
    which write_jsa and the sidecar read share, import or name hashlib, so
    the writer and the reader cannot define the digest twice; and no
    module imports mmap: a table cut short under a map would kill the
    process instead of raising."""
    hashers, mappers = set(), set()
    for path in sorted((Path(polentsim.__file__).parent).glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    modules = {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    modules = {(node.module or "").split(".")[0]}
                else:
                    modules = {node.id} if isinstance(node, ast.Name) else set()
                if "hashlib" in modules:
                    hashers.add(scope)
                if "mmap" in modules:
                    mappers.add(scope)
    assert hashers == {
        ("spectral.py", "_leaf_digest"),
        ("spectral.py", "_root"),
        ("spectral.py", "_Leaves"),
    }
    assert mappers == set()


def test_flags_reach_the_number_grammar():
    """No flag of the command line is given an argparse ``type=``: each
    flag's text reaches the number grammar of the configuration."""
    cli = Path(polentsim.__file__).parent / "cli.py"
    calls = [
        node
        for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
    ]
    assert len(calls) >= 10  # the walk finds the flags
    typed = [ast.unparse(c) for c in calls if any(k.arg == "type" for k in c.keywords)]
    assert typed == []


def test_only_main_writes():
    """In cli.py only ``main`` makes a directory, calls a writer (a call whose
    name starts with ``write``) or writes stdout, and only the text writer of
    metrics.txt opens a file: a command returns its files and its report, so
    a check that stops it leaves nothing behind."""
    cli = Path(polentsim.__file__).parent / "cli.py"
    calls = set()
    for func in ast.parse(cli.read_text(encoding="utf-8")).body:
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func)
                    last = name.rsplit(".", 1)[-1]
                    if last.startswith("write") or last in ("open", "makedirs", "print"):
                        calls.add((func.name, name))
    assert calls == {
        ("_write_text", "open"),
        ("_write_text", "fh.write"),
        ("main", "os.makedirs"),
        ("main", "writer"),
        ("main", "sys.stdout.write"),
        ("main", "sys.stderr.write"),
    }


def _caught_errors(handler):
    """The package's error classes that ``handler`` names."""
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    found = [getattr(errors, ast.unparse(n).rsplit(".", 1)[-1], None) for n in names]
    return [c for c in found if isinstance(c, type) and issubclass(c, errors.SimulationError)]


def test_only_the_fault_path_makes_a_format_error():
    """No module but errors.py catches one of the package's errors and raises
    a FormatError in its place: a library error raised on a data file's
    contents becomes that file's fault through ``errors.fault_of`` alone.
    Other handlers, such as read_jsa's of np.loadtxt's ValueError, may."""
    converting = []
    handlers = 0
    for path in sorted(Path(polentsim.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            handlers += 1
            raises = {
                ast.unparse(n.exc.func)
                for n in ast.walk(node)
                if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
            }
            if "FormatError" in raises and _caught_errors(node):
                converting.append(f"{path.name}:{node.lineno}")
    assert handlers >= 5  # the walk finds the handlers
    assert converting == []


def test_benchmark_names_exist():
    """Every package name the benchmark reaches exists: attributes of the
    polentsim modules that perfbench imports, names it imports from them,
    and the calls its tracer wraps.  A rename would otherwise show only as
    a failed benchmark run."""
    layers = {"spectral", "jointstate", "calibrate", "tomography", "metrics", "cli"}
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    wanted = set()
    for path in sorted(bench.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> polentsim module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "polentsim":
                for alias in node.names:
                    modules[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "polentsim."
            ):
                module = node.module.split(".", 1)[1]
                wanted |= {(path.name, module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED_CALLS" for t in node.targets
            ):
                for module, names in ast.literal_eval(node.value).items():
                    wanted |= {(path.name, module, name) for name in names}
        wanted |= {
            (path.name, modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    assert {module for _, module, _ in wanted} >= layers
    missing = sorted(
        f"{where}: {module}.{name}"
        for where, module, name in wanted
        if not hasattr(importlib.import_module(f"polentsim.{module}"), name)
    )
    assert missing == []
    grid = FrequencyGrid.centered(1535.2e-9, 40e-9, 64)
    assert grid.omega_s_axis is grid.axis and grid.omega_i_axis is grid.axis
    assert grid.cell == grid.d_omega**2



def _used_names(tree) -> set:
    """Names a module refers to: identifiers, attributes, imported names and
    the modules they come from.  A function or class is not a use of itself."""
    used = set()
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= set((node.module or "").split("."))
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names |= {part for a in node.names for part in a.name.split(".")}
        names.discard(getattr(top, "name", None))
        used |= names
    return used


def _public_definitions(tree):
    """(name, label) of each public top-level function and class, and of
    each public method and property of those classes."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name, top.name
            for node in top.body if isinstance(top, ast.ClassDef) else ():
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield node.name, f"{top.name}.{node.name}"


def test_exported_names_have_a_caller():
    """Every public function, class, method and property of the package is
    used by the package itself (outside its own top-level definition) or by
    the benchmark; a name that only the tests call belongs in the tests."""
    root = Path(__file__).resolve().parents[1]
    package = [
        path
        for path in sorted((root / "src" / "polentsim").glob("*.py"))
        if path.name != "__init__.py"
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in package}
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
    for path in sorted((root / "perfbench").rglob("*.py")):
        used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.name}: {label}"
        for path, tree in trees.items()
        for name, label in _public_definitions(tree)
        if name not in used
    ]
    assert unused == []
