"""Tests of the edge-split root search and of what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polentsim
from polentsim import calibrate
from polentsim.calibrate import _SPLIT_TOL, _alpha_excess, _illinois_root, fit_edge_split
from polentsim.dichroic import SplitterResponse
from polentsim.errors import ConvergenceError, DomainError, UnidentifiableFitError
from polentsim.jointstate import _power, diagonal_weights, post_select
from polentsim.spectral import FrequencyGrid, PdcModel, build_jsa

GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, 512)


def _cube_excess(x):
    return x**3 - 2.0


def test_converges_to_the_root():
    root = _illinois_root(_cube_excess, 0.0, 2.0, ())
    assert root == pytest.approx(2.0 ** (1 / 3), abs=_SPLIT_TOL / 2)


def test_iteration_cap_raises_with_last_iterate(monkeypatch):
    monkeypatch.setattr(calibrate, "_SPLIT_STEPS", 1)
    with pytest.raises(ConvergenceError) as err:
        _illinois_root(_cube_excess, 0.0, 2.0, ())
    assert 0.0 < err.value.best < 2.0


@pytest.mark.parametrize("target", [float("nan"), float("inf")])
def test_nonfinite_target_rejected(monkeypatch, target):
    """A target that is not finite is rejected before any evaluation."""
    seen = []
    monkeypatch.setattr(calibrate, "_alpha_excess", lambda *args: seen.append(args))
    jsa = build_jsa(PdcModel(), GRID)
    with pytest.raises(DomainError, match="finite"):
        fit_edge_split(jsa, SplitterResponse(), target)
    assert seen == []


def test_unbracketed_root_rejected():
    with pytest.raises(UnidentifiableFitError, match="same sign"):
        _illinois_root(_cube_excess, 2.0, 3.0, ())


def test_fit_holds_alpha_to_the_benchmark_tolerance():
    """Over draws of the benchmark's source and target ranges, the fitted
    split gives alpha within 2e-6 of the target, and the excess changes
    sign across the split within 1.1 times the bracket tolerance."""
    rng = np.random.default_rng(23)
    step = 1.1 * _SPLIT_TOL
    for _ in range(20):
        model = PdcModel(
            pump_bandwidth_fwhm=rng.uniform(0.5e-9, 1.1e-9),
            crystal_length=rng.uniform(1.5e-3, 2.3e-3),
        )
        template = SplitterResponse(step_width=rng.uniform(5e-9, 9e-9))
        target = rng.uniform(0.45, 0.62)
        jsa = build_jsa(model, GRID)
        fitted = fit_edge_split(jsa, template, target)
        alpha, _ = diagonal_weights(post_select(jsa, fitted))
        assert abs(alpha - target) <= 2e-6
        split = fitted.edge_wavelength_h - fitted.edge_wavelength_v
        args = (_power(jsa.amplitude), template, GRID, target)
        below, above = (_alpha_excess(split + d, *args) for d in (-step, step))
        assert below * above <= 0


def test_import_loads_no_scipy():
    """Importing the package and its command line loads no scipy module."""
    code = (
        "import sys, polentsim, polentsim.calibrate, polentsim.cli\n"
        "print(polentsim.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(polentsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(polentsim.__file__).resolve()
    assert out[1] == "[]"
