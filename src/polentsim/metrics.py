"""Scalar characterizations of two-qubit polarization states."""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InvalidStateError
from .jointstate import PolarizationDensityMatrix
from .tomography import PROJECTION_PAIRS, CountTable

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

#: Count-table rows of the cross-polarized settings (H,V) and (V,H).
_CROSS = [PROJECTION_PAIRS.index(("H", "V")), PROJECTION_PAIRS.index(("V", "H"))]


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, PolarizationDensityMatrix):
        return rho.elements
    return np.asarray(rho, dtype=complex)


def purity(rho) -> float:
    """Tr(rho^2)."""
    mat = _as_matrix(rho)
    value = np.trace(mat @ mat)
    if abs(value.imag) > 1e-12:
        raise InvalidStateError("purity has a non-negligible imaginary part")
    return float(value.real)


def concurrence(rho) -> float:
    """Wootters concurrence from the spin-flipped eigenvalue spectrum."""
    mat = _as_matrix(rho)
    flipped = mat @ _SPIN_FLIP @ mat.conj() @ _SPIN_FLIP
    eigvals = np.linalg.eigvals(flipped)
    # eigenvalues are real non-negative up to roundoff
    roots = np.sqrt(np.abs(np.real(eigvals)))
    roots.sort()
    return float(max(0.0, roots[3] - roots[2] - roots[1] - roots[0]))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2.0)
    if vals.min() < -1e-10:
        raise InvalidStateError("matrix square root of a non-PSD input")
    vals = np.maximum(vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho_a, rho_b) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(a) b sqrt(a)); symmetric in a, b."""
    a = _as_matrix(rho_a)
    b = _as_matrix(rho_b)
    root_a = _psd_sqrt(a)
    value = np.trace(_psd_sqrt(root_a @ b @ root_a)).real
    return float(min(1.0, value))


def extract_d(rho):
    """(off-diagonal coherence <VH|rho|HV>, its principal-value phase)."""
    mat = _as_matrix(rho)
    d = complex(mat[2, 1])
    return d, float(np.angle(d))


def car(table: CountTable) -> float:
    """Coincidences-to-accidentals ratio of the cross-polarized settings."""
    accidentals = table.accidentals[_CROSS]
    positive = accidentals > 0
    if not positive.any():
        raise DomainError("no cross-polarized setting with positive accidentals")
    return float(np.max(table.coincidences[_CROSS][positive] / accidentals[positive]))


def format_report(values: dict) -> str:
    """Render every ``key value`` pair as a ``%s %.12g`` line, in order."""
    return "".join("%s %.12g\n" % item for item in values.items())


def state_report(rho, reference=None, table: CountTable | None = None) -> str:
    """Full metrics report for a state, optionally vs. a reference state."""
    d, phase = extract_d(rho)
    values = {"purity": purity(rho), "concurrence": concurrence(rho)}
    if reference is not None:
        values["fidelity"] = fidelity(rho, reference)
    values.update(re_D=d.real, im_D=d.imag, abs_D=abs(d), phase_rad=phase)
    if table is not None:
        values["car"] = car(table)
    return format_report(values)
