"""Package metadata and source hygiene."""

import ast
from pathlib import Path

import pytest

import polentsim

tomllib = pytest.importorskip("tomllib")


def _project():
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
