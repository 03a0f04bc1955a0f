"""Per-cell oracles of the JSA model for the tests: the pump envelope and
the phase-matching factor evaluated on frequency arrays, cell by cell.
``build_jsa`` evaluates the same model band by band from axis vectors.
``normalized_jsa`` makes a JSA of any amplitude array."""

import numpy as np

from polentsim.errors import DomainError, EmptySupportError
from polentsim.spectral import (
    C,
    JsaGrid,
    PdcModel,
    _gaussian,
    _mismatch_terms,
    _riemann_power,
    _sinc,
)


def normalized_jsa(grid, amplitude) -> JsaGrid:
    """``amplitude`` scaled to unit Riemann norm on ``grid``."""
    amplitude = np.asarray(amplitude, dtype=complex)
    total = _riemann_power(amplitude, grid.cell)
    if total <= 0:
        raise EmptySupportError("amplitude has zero norm on this grid")
    return JsaGrid(grid, amplitude / np.sqrt(total))


def pump_envelope(model: PdcModel, omega_sum):
    """Gaussian pump amplitude at the given signal+idler frequency.

    Peak value 1 at the pump center; the squared magnitude has the
    configured intensity FWHM.
    """
    omega_sum = np.asarray(omega_sum, dtype=float)
    if np.any(omega_sum <= 0):
        raise DomainError("pump frequency must be positive")
    delta = omega_sum - model.omega_pump_center
    return _gaussian(delta / model.pump_bandwidth_omega).astype(complex)


def phase_mismatch(model: PdcModel, omega_s, omega_i):
    """First-order wave-vector mismatch (1/m) around degeneracy."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    if np.any(omega_s <= 0) or np.any(omega_i <= 0):
        raise DomainError("frequencies must be positive")
    signal, idler, constant = _mismatch_terms(model, omega_s, omega_i)
    return (signal + idler + constant) / C


def phase_matching(model: PdcModel, omega_s, omega_i):
    """sinc(dk L/2) * exp(i dk L/2) phase-matching amplitude."""
    x = phase_mismatch(model, omega_s, omega_i) * model.crystal_length / 2.0
    return _sinc(x) * np.exp(1j * x)
