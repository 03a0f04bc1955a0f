"""Joint spectral amplitude of the type-II down-conversion pair.

The two-photon amplitude is modeled as a Gaussian pump envelope times a
sinc phase-matching factor with first-order (group-index) dispersion,
discretized on a uniform angular-frequency grid and normalized so that
the Riemann sum of |f|^2 equals one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptySupportError, FormatError, ResolutionError

C = 299_792_458.0  # speed of light, m/s

# Calibrated group-index model.  The signal/idler difference is chosen so
# that the walk-off accumulated over half the crystal equals the quartz-plate
# retardance used to compensate it; the pump offset keeps the phase-matching
# bandwidth along the pump direction wide compared to the pump envelope.
GROUP_INDEX_BASE = 3.3
GROUP_INDEX_PUMP_OFFSET = 0.025


def wavelength_to_omega(wavelength):
    """Convert vacuum wavelength (m) to angular frequency (rad/s)."""
    return 2.0 * np.pi * C / np.asarray(wavelength, dtype=float)


def omega_to_wavelength(omega):
    """Convert angular frequency (rad/s) to vacuum wavelength (m)."""
    return 2.0 * np.pi * C / np.asarray(omega, dtype=float)


def _check_uniform_axis(axis, name):
    axis = np.asarray(axis, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise DomainError(f"{name}: need at least 2 points")
    if not np.all(np.isfinite(axis)):
        raise DomainError(f"{name}: axis must be finite")
    steps = np.diff(axis)
    if np.any(steps <= 0):
        raise DomainError(f"{name}: axis must be strictly increasing")
    step = steps[0]
    # allow a few ulps of the axis magnitude: differences of large values
    # are exact only up to rounding of the values themselves
    tol = 1e-12 * abs(step) + 4.0 * np.spacing(np.abs(axis).max())
    if np.max(np.abs(steps - step)) > tol:
        raise DomainError(f"{name}: axis must be uniformly spaced")
    return axis


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform signal x idler angular-frequency grid (rad/s)."""

    omega_s_axis: np.ndarray
    omega_i_axis: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "omega_s_axis", _check_uniform_axis(self.omega_s_axis, "omega_s_axis")
        )
        object.__setattr__(
            self, "omega_i_axis", _check_uniform_axis(self.omega_i_axis, "omega_i_axis")
        )

    @property
    def n_s(self) -> int:
        return self.omega_s_axis.size

    @property
    def n_i(self) -> int:
        return self.omega_i_axis.size

    @property
    def d_omega_s(self) -> float:
        return float(self.omega_s_axis[1] - self.omega_s_axis[0])

    @property
    def d_omega_i(self) -> float:
        return float(self.omega_i_axis[1] - self.omega_i_axis[0])

    @property
    def cell(self) -> float:
        """Area element d_omega_s * d_omega_i."""
        return self.d_omega_s * self.d_omega_i

    def axes_match(self) -> bool:
        """True when both axes are numerically identical (square grid)."""
        return self.n_s == self.n_i and np.array_equal(
            self.omega_s_axis, self.omega_i_axis
        )

    @classmethod
    def centered(cls, center_wavelength, width_wavelength, n=512):
        """Cell-centered grid spanning a wavelength window on both axes.

        Cell-centered sampling makes the plain Riemann sums used throughout
        converge at second order, which the grid-refinement checks rely on.
        """
        if width_wavelength <= 0:
            raise DomainError("window width must be positive")
        lam_lo = center_wavelength - width_wavelength / 2.0
        lam_hi = center_wavelength + width_wavelength / 2.0
        if lam_lo <= 0:
            raise DomainError("window extends to non-positive wavelengths")
        w_lo = wavelength_to_omega(lam_hi)
        w_hi = wavelength_to_omega(lam_lo)
        step = (w_hi - w_lo) / n
        axis = w_lo + (np.arange(n) + 0.5) * step
        return cls(axis, axis.copy())


def _default_group_indices(crystal_length, intrinsic_delay_comp):
    delta = 2.0 * C * intrinsic_delay_comp / crystal_length
    n_gs = GROUP_INDEX_BASE - delta / 2.0
    n_gi = GROUP_INDEX_BASE + delta / 2.0
    n_gp = GROUP_INDEX_BASE + GROUP_INDEX_PUMP_OFFSET
    return n_gs, n_gi, n_gp


@dataclass(frozen=True)
class PdcModel:
    """Source parameters of the down-conversion pair.

    ``intrinsic_delay_comp`` is the birefringent walk-off accumulated over
    half the crystal; a positive value puts the coherence maximum of the
    split state at a positive signal delay of the same magnitude.
    """

    pump_center_wavelength: float = 767.6e-9
    pump_bandwidth_fwhm: float = 0.8e-9  # intensity FWHM, wavelength
    degeneracy_wavelength: float = 1535.2e-9
    crystal_length: float = 1.87e-3
    intrinsic_delay_comp: float = 25.9e-15
    group_index_signal: float | None = None
    group_index_idler: float | None = None
    group_index_pump: float | None = None

    def __post_init__(self):
        for name in (
            "pump_center_wavelength",
            "pump_bandwidth_fwhm",
            "degeneracy_wavelength",
            "crystal_length",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite")
        if not np.isfinite(self.intrinsic_delay_comp):
            raise DomainError("intrinsic_delay_comp must be finite")
        n_gs, n_gi, n_gp = _default_group_indices(
            self.crystal_length, self.intrinsic_delay_comp
        )
        if self.group_index_signal is None:
            object.__setattr__(self, "group_index_signal", n_gs)
        if self.group_index_idler is None:
            object.__setattr__(self, "group_index_idler", n_gi)
        if self.group_index_pump is None:
            object.__setattr__(self, "group_index_pump", n_gp)
        for name in ("group_index_signal", "group_index_idler", "group_index_pump"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 1.0):
                raise DomainError(f"{name} must be finite and >= 1")

    @property
    def omega_pump_center(self) -> float:
        return float(wavelength_to_omega(self.pump_center_wavelength))

    @property
    def omega_degeneracy(self) -> float:
        return float(wavelength_to_omega(self.degeneracy_wavelength))

    @property
    def pump_bandwidth_omega(self) -> float:
        """Pump intensity FWHM converted to angular frequency (rad/s)."""
        return float(
            2.0
            * np.pi
            * C
            * self.pump_bandwidth_fwhm
            / self.pump_center_wavelength**2
        )


def _riemann_power(values, cell) -> float:
    """Riemann sum of |values|^2 times the cell area (one BLAS dot product)."""
    return float(np.vdot(values, values).real) * cell


@dataclass(frozen=True)
class JsaGrid:
    """Discretized complex joint spectral amplitude, unit Riemann norm."""

    grid: FrequencyGrid
    amplitude: np.ndarray
    discarded_fraction: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.shape != (self.grid.n_s, self.grid.n_i):
            raise DomainError("amplitude shape does not match the grid")
        object.__setattr__(self, "amplitude", amp)
        norm = self.norm()
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise DomainError("joint spectral amplitude is not normalized")

    def norm(self) -> float:
        """Riemann sum of |f|^2 over the grid."""
        return _riemann_power(self.amplitude, self.grid.cell)

    @classmethod
    def normalized(cls, grid, amplitude, discarded_fraction=0.0):
        amplitude = np.asarray(amplitude, dtype=complex)
        total = _riemann_power(amplitude, grid.cell)
        if total <= 0:
            raise EmptySupportError("amplitude has zero norm on this grid")
        return cls(grid, amplitude / np.sqrt(total), discarded_fraction)


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


def _gaussian(u):
    """Pump amplitude at detuning u, in units of the intensity FWHM."""
    return np.exp(-2.0 * np.log(2.0) * (u * u))


def _mismatch_terms(model: PdcModel, omega_s, omega_i):
    """c dk split as (signal part, idler part, constant).

    Grouping each group index with the pump's leaves terms that vanish at
    degeneracy instead of three terms of ~3e5 1/m that cancel.
    """
    n_gp = model.group_index_pump
    w0 = model.omega_degeneracy
    return (
        (n_gp - model.group_index_signal) * (omega_s - w0),
        (n_gp - model.group_index_idler) * (omega_i - w0),
        n_gp * (2.0 * w0 - model.omega_pump_center),
    )


def phase_mismatch(model: PdcModel, omega_s, omega_i):
    """First-order wave-vector mismatch (1/m) around degeneracy."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    if np.any(omega_s <= 0) or np.any(omega_i <= 0):
        raise DomainError("frequencies must be positive")
    signal, idler, constant = _mismatch_terms(model, omega_s, omega_i)
    return (signal + idler + constant) / C


def _sinc(x):
    """sin(x)/x with the limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


def phase_matching(model: PdcModel, omega_s, omega_i):
    """sinc(dk L/2) * exp(i dk L/2) phase-matching amplitude."""
    x = phase_mismatch(model, omega_s, omega_i) * model.crystal_length / 2.0
    return _sinc(x) * np.exp(1j * x)


def _grid_factors(model: PdcModel, axis_s, axis_i):
    """Pump x phase-matching on the outer grid of two axes, factorized.

    Returns (envelope, phase_s, phase_i) with the amplitude equal to
    envelope * outer(phase_s, phase_i): dk L/2 is a sum of a signal and an
    idler term, so exp(i dk L/2) is an outer product of axis vectors and
    only the pump Gaussian and the sinc are evaluated per cell.
    """
    if np.any(axis_s <= 0) or np.any(axis_i <= 0):
        raise DomainError("frequencies must be positive")
    signal, idler, constant = _mismatch_terms(model, axis_s, axis_i)
    half_length = model.crystal_length / (2.0 * C)
    x_s = (signal + constant) * half_length
    x_i = idler * half_length
    # omega - omega_p / 2 is exact near degeneracy; the pump detuning is
    # the sum of the two per-axis detunings
    half_pump = model.omega_pump_center / 2.0
    u_s = (axis_s - half_pump) / model.pump_bandwidth_omega
    u_i = (axis_i - half_pump) / model.pump_bandwidth_omega
    envelope = _gaussian(np.add.outer(u_s, u_i))
    envelope *= _sinc(np.add.outer(x_s, x_i))
    return envelope, np.exp(1j * x_s), np.exp(1j * x_i)


def build_jsa(model: PdcModel, grid: FrequencyGrid) -> JsaGrid:
    """Evaluate pump x phase-matching on the grid and normalize.

    The discarded-norm fraction is the share of the whole plane's norm
    that falls outside the grid window.  |f|^2 = G(sigma)^2 sinc^2(x) with
    sigma = omega_s + omega_i and x = dk L/2 both linear in the two
    frequencies, so that norm is dw_p sqrt(pi / (4 ln 2)) pi / |J|, with
    dw_p the pump intensity FWHM and J = (L / 2c)(n_gs - n_gi).  With equal
    signal and idler group indices (J = 0) the sinc^2 ridge never ends and
    the fraction is its limit, exactly 1.
    """
    step = max(grid.d_omega_s, grid.d_omega_i)
    if model.pump_bandwidth_omega / (2.0 * step) < 8.0:
        raise ResolutionError(
            "grid too coarse across the pump bandwidth "
            f"({model.pump_bandwidth_omega / (2.0 * step):.1f} points, need >= 8)"
        )
    envelope, phase_s, phase_i = _grid_factors(
        model, grid.omega_s_axis, grid.omega_i_axis
    )
    norm_in = _riemann_power(envelope, grid.cell)
    if not norm_in > 0:
        raise EmptySupportError("amplitude has zero norm on this grid")
    # norm_in / (whole-plane norm), written as a product so that J = 0
    # gives the limit 1 without a division
    j = model.crystal_length / (2.0 * C) * (
        model.group_index_signal - model.group_index_idler
    )
    kept = norm_in * abs(j) / (
        model.pump_bandwidth_omega * np.sqrt(np.pi / (4.0 * np.log(2.0))) * np.pi
    )
    discarded = max(0.0, 1.0 - float(kept))
    envelope /= np.sqrt(norm_in)
    amplitude = np.outer(phase_s, phase_i)
    amplitude *= envelope
    return JsaGrid(grid, amplitude, discarded_fraction=discarded)


def apply_bandpass(jsa: JsaGrid, center_wavelength, width) -> JsaGrid:
    """Top-hat band-pass on both axes, then renormalize.

    The discarded-norm fraction of the result is the out-of-window share
    of the input norm.
    """
    if width <= 0:
        raise DomainError("filter width must be positive")
    lam_lo = center_wavelength - width / 2.0
    lam_hi = center_wavelength + width / 2.0

    def _mask(axis):
        lam = omega_to_wavelength(axis)
        return (lam >= lam_lo) & (lam <= lam_hi)

    keep = np.outer(_mask(jsa.grid.omega_s_axis), _mask(jsa.grid.omega_i_axis))
    if not keep.any():
        raise EmptySupportError("band-pass window does not overlap the grid")
    filtered = np.where(keep, jsa.amplitude, 0.0)
    norm_in = _riemann_power(filtered, jsa.grid.cell)
    if norm_in <= 0:
        raise EmptySupportError("band-pass window has no amplitude support")
    return JsaGrid.normalized(
        jsa.grid, filtered, discarded_fraction=float(1.0 - norm_in / jsa.norm())
    )


def antidiagonal_marginal(jsa: JsaGrid):
    """Marginal of |f|^2 over the signal+idler sum frequency.

    Returns (sum_frequencies, density); only defined for grids with a
    common step on both axes so the sums fall on a uniform axis.
    """
    grid = jsa.grid
    if abs(grid.d_omega_s - grid.d_omega_i) > 1e-9 * grid.d_omega_s:
        raise DomainError("marginal requires equal axis steps")
    # cell (j, k) has sum frequency omega_s[0] + omega_i[0] + (j + k) d_omega
    index_sum = (np.arange(grid.n_s)[:, None] + np.arange(grid.n_i)[None, :]).ravel()
    density = np.bincount(
        index_sum, (np.abs(jsa.amplitude) ** 2).ravel(), grid.n_s + grid.n_i - 1
    )
    offsets = np.arange(-(grid.n_i - 1), grid.n_s)
    sums = (
        grid.omega_s_axis[0]
        + grid.omega_i_axis[-1]
        + offsets * grid.d_omega_s
    )
    return sums, density * grid.cell / grid.d_omega_s


def marginal_fwhm(axis, density) -> float:
    """FWHM of a sampled, single-peaked density by linear interpolation."""
    density = np.asarray(density, dtype=float)
    peak = density.max()
    if peak <= 0:
        raise DomainError("density has no peak")
    half = peak / 2.0
    above = np.nonzero(density >= half)[0]
    lo, hi = above[0], above[-1]

    def _cross(i, j):
        if i == j:
            return axis[i]
        frac = (half - density[i]) / (density[j] - density[i])
        return axis[i] + frac * (axis[j] - axis[i])

    left = _cross(lo - 1, lo) if lo > 0 else axis[0]
    right = _cross(hi + 1, hi) if hi < density.size - 1 else axis[-1]
    return float(right - left)


#: Real values formatted per call of :func:`write_jsa`.
_WRITE_BLOCK_VALUES = 1 << 16


def write_jsa(path, jsa: JsaGrid) -> None:
    """Write the line-oriented JSA table (SI units, full precision)."""
    grid = jsa.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "# %d %d %.17g %.17g %.17g %.17g\n"
            % (
                grid.n_s,
                grid.n_i,
                grid.omega_s_axis[0],
                grid.d_omega_s,
                grid.omega_i_axis[0],
                grid.d_omega_i,
            )
        )
        # one format call per block of rows keeps the string a few MB
        values = np.ascontiguousarray(jsa.amplitude).view(float)
        rows = max(1, _WRITE_BLOCK_VALUES // values.shape[1])
        for start in range(0, values.shape[0], rows):
            block = values[start : start + rows].ravel().tolist()
            fh.write(("%.17g %.17g\n" * (len(block) // 2)) % tuple(block))


def read_jsa(path) -> JsaGrid:
    """Read a JSA table written by :func:`write_jsa`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise FormatError("missing JSA header line")
        parts = header[1:].split()
        if len(parts) != 6:
            raise FormatError("JSA header needs 6 fields")
        try:
            n_s, n_i = int(parts[0]), int(parts[1])
            s_min, s_step, i_min, i_step = map(float, parts[2:])
        except ValueError as exc:
            raise FormatError(f"JSA header: {exc}") from exc
        if (n_s, s_min, s_step) != (n_i, i_min, i_step):
            raise FormatError("JSA signal and idler axes must be identical")
        if n_s < 1:
            raise FormatError("JSA point count must be positive")
        try:
            values = np.loadtxt(fh, dtype=float, ndmin=2)
        except ValueError as exc:
            raise FormatError(f"JSA table: {exc}") from exc
    if values.shape != (n_s * n_i, 2):
        raise FormatError(
            f"expected {n_s * n_i} complex rows, found {values.shape[0]}"
        )
    amp = (values[:, 0] + 1j * values[:, 1]).reshape(n_s, n_i)
    grid = FrequencyGrid(
        s_min + np.arange(n_s) * s_step, i_min + np.arange(n_i) * i_step
    )
    return JsaGrid(grid, amp)
