"""Package metadata."""

from pathlib import Path

import pytest

import polentsim

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert polentsim.__version__ == project["version"]
