"""Polarization-dependent spectral edge of the dichroic mirror.

Transmission is a logistic function of wavelength with a configurable
10%-90% transition width and per-polarization edge position; reflection
is defined as the exact complement, so energy conservation holds by
construction.  A measured transmission table can replace the logistic
model per polarization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, fault_of, read_rows
from .spectral import FrequencyGrid, omega_to_wavelength

# logistic slope for a given 10-90 width
_LOGISTIC_RISE = 2.0 * np.log(9.0)


def _check_table(tab, name=None) -> np.ndarray:
    """``tab`` as an (n, 2) float array of (wavelength, T) samples, n >= 2;
    a fault's message starts ``name:`` when a name is given."""
    tab = np.asarray(tab, dtype=float)
    where = f"{name}: " if name else ""
    if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
        raise DomainError(f"{where}need an (n, 2) array with n >= 2")
    if not np.all(np.isfinite(tab)):
        raise DomainError(f"{where}values must be finite")
    if np.any(np.diff(tab[:, 0]) <= 0):
        raise DomainError(f"{where}wavelengths must be increasing")
    if np.any((tab[:, 1] < 0) | (tab[:, 1] > 1)):
        raise DomainError(f"{where}transmissions must lie in [0, 1]")
    return tab


@dataclass(frozen=True)
class SplitterResponse:
    """Edge model of the dichroic mirror.

    ``transmit_long`` selects which side of the edge is transmitted
    (default: longer wavelengths pass).  ``table_h``/``table_v`` are
    optional (n, 2) arrays of (wavelength m, transmission) samples which
    override the logistic model for that polarization.
    """

    edge_wavelength_h: float = 1535.2e-9
    edge_wavelength_v: float = 1535.2e-9
    step_width: float = 7e-9  # 10%-90% transition width, wavelength
    transmit_long: bool = True
    table_h: np.ndarray | None = None
    table_v: np.ndarray | None = None

    def __post_init__(self):
        for name in ("edge_wavelength_h", "edge_wavelength_v", "step_width"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite")
        for name in ("table_h", "table_v"):
            tab = getattr(self, name)
            if tab is not None:
                object.__setattr__(self, name, _check_table(tab, name))

    def _edge(self, polarization: str) -> float:
        if polarization == "H":
            return self.edge_wavelength_h
        if polarization == "V":
            return self.edge_wavelength_v
        raise DomainError(f"unknown polarization {polarization!r}")

    def transmission(self, omega, polarization: str):
        """Transmission T in [0, 1] at angular frequency omega (rad/s)."""
        omega = np.asarray(omega, dtype=float)
        if np.any(omega <= 0):
            raise DomainError("frequency must be positive")
        lam = omega_to_wavelength(omega)
        table = self.table_h if polarization == "H" else self.table_v
        self._edge(polarization)  # validates the label
        if table is not None:
            return np.interp(lam, table[:, 0], table[:, 1])
        slope = _LOGISTIC_RISE / self.step_width
        arg = slope * (lam - self._edge(polarization))
        if not self.transmit_long:
            arg = -arg
        return 1.0 / (1.0 + np.exp(-arg))


@dataclass(frozen=True)
class SplitterCurves:
    """Per-axis transmission/reflection samples for element-wise use."""

    t_h: np.ndarray  # signal axis
    r_h: np.ndarray
    t_v: np.ndarray  # idler axis
    r_v: np.ndarray


def sample_on_grid(resp: SplitterResponse, grid: FrequencyGrid) -> SplitterCurves:
    """Sample T/R for H (signal) and V (idler) on the shared axis."""
    t_h = resp.transmission(grid.axis, "H")
    t_v = resp.transmission(grid.axis, "V")
    return SplitterCurves(t_h=t_h, r_h=1.0 - t_h, t_v=t_v, r_v=1.0 - t_v)


def read_transmission_table(path) -> np.ndarray:
    """Read a two-column ``lambda_nm T`` table into an (n, 2) SI array."""
    rows = read_rows(path, "lambda_nm T", (float, float))
    table = np.array([values for _, values in rows]).reshape(-1, 2) * (1e-9, 1.0)
    with fault_of(path):
        return _check_table(table)
