"""Package metadata."""

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

