"""Tests of the edge-split root search and of what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polentsim
from polentsim.calibrate import _SPLIT_BRACKET, _SPLIT_TOL, _alpha_excess, _brent_root
from polentsim.dichroic import SplitterResponse
from polentsim.errors import ConvergenceError, DomainError, UnidentifiableFitError
from polentsim.jointstate import _power
from polentsim.spectral import FrequencyGrid, PdcModel, build_jsa

GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, 512)


def _cube_excess(x):
    return x**3 - 2.0


def test_matches_scipy_brentq_bit_for_bit():
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(61)
    for _ in range(30):
        model = PdcModel(
            pump_bandwidth_fwhm=rng.uniform(0.5e-9, 1.1e-9),
            crystal_length=rng.uniform(1.5e-3, 2.3e-3),
        )
        template = SplitterResponse(step_width=rng.uniform(5e-9, 9e-9))
        target = rng.uniform(0.45, 0.62)
        args = (_power(build_jsa(model, GRID).amplitude), template, GRID, target)
        lo, hi = _SPLIT_BRACKET
        split = _brent_root(_alpha_excess, lo, hi, args, xtol=_SPLIT_TOL)
        assert split == brentq(_alpha_excess, lo, hi, args=args, xtol=_SPLIT_TOL)


def test_matches_scipy_brentq_on_steep_and_flat_roots():
    """Roots that force the bisection and the extrapolation steps."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    rng = np.random.default_rng(7)
    for _ in range(40):
        r, k = rng.uniform(-0.9, 0.9), 10 ** rng.uniform(0, 4)
        for f in (
            lambda x: np.tanh(k * (x - r)),
            lambda x: (x - r) ** 5 + 1e-3 * np.sign(x - r),
            lambda x: (x - r) * np.exp(k * 1e-3 * x) - 1e-6,
        ):
            for xtol in (1e-13, 1e-8):
                assert _brent_root(f, -1.0, 1.0, xtol=xtol) == brentq(
                    f, -1.0, 1.0, xtol=xtol
                )


def test_converges_to_the_root():
    root = _brent_root(_cube_excess, 0.0, 2.0, xtol=1e-14)
    assert root == pytest.approx(2.0 ** (1 / 3), abs=1e-14)


def test_iteration_cap_raises_with_last_iterate():
    with pytest.raises(ConvergenceError) as err:
        _brent_root(_cube_excess, 0.0, 2.0, xtol=1e-14, maxiter=1)
    assert 0.0 < err.value.best < 2.0


def test_nan_value_rejected():
    def nan_inside(x):
        return x if abs(x) == 1.0 else float("nan")

    with pytest.raises(DomainError, match="NaN"):
        _brent_root(nan_inside, -1.0, 1.0)


@pytest.mark.parametrize("xtol", [0.0, -1e-13, float("nan")])
def test_nonpositive_tolerance_rejected(xtol):
    with pytest.raises(DomainError, match="tolerance"):
        _brent_root(_cube_excess, 0.0, 2.0, xtol=xtol)


def test_unbracketed_root_rejected():
    with pytest.raises(UnidentifiableFitError, match="same sign"):
        _brent_root(_cube_excess, 2.0, 3.0)


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
