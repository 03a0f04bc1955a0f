"""Post-selected two-path state, coherence vs. delay, and delay sweeps.

After the dichroic mirror, keeping only cross-path coincidence terms
leaves two amplitudes g (signal transmitted, idler reflected) and h
(signal reflected, idler transmitted).  Tracing over frequency gives a
two-qubit density matrix whose diagonal weights alpha/beta and complex
off-diagonal coherence depend on the signal-idler delay tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dichroic import SplitterCurves, SplitterResponse, sample_on_grid
from .errors import (
    DegeneratePostSelectionError,
    DomainError,
    InvalidStateError,
    NonphysicalCoherenceError,
    UnidentifiableFitError,
)
from .spectral import FrequencyGrid, JsaGrid

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class PostSelectedAmplitudes:
    """Cross-path amplitudes g, h on a common grid.

    ``norm_constant`` is the shared normalization (the Riemann sum of
    |g|^2 + |h|^2); ``neglected_fraction`` is the same-path probability
    dropped by post-selection; ``alpha`` and ``beta`` are the diagonal
    weights, the shares of |g|^2 and |h|^2 in the normalization.
    """

    g: np.ndarray
    h: np.ndarray
    grid: FrequencyGrid
    norm_constant: float
    neglected_fraction: float
    alpha: float
    beta: float

    @cached_property
    def difference_spectrum(self):
        """(d_omega, table) with D(tau) the sum over (k1, k0) of
        table[k1, k0] exp(i tau (k1 B + k0 - (n - 1)) d_omega), B =
        table.shape[1].

        Cell (j, k) of the overlap h(omega_i, omega_s) conj(g(omega_s,
        omega_i)) has difference frequency (j - k) d_omega, so one bincount
        over j - k collapses the grid onto 2n - 1 terms, zero-padded to a
        K x B table with B the ceiling of sqrt(2n - 1).  Computed on first
        use; needs identical axes, on which h with swapped arguments is h.T.
        """
        if not self.grid.axes_match():
            raise DomainError("coherence needs identical signal and idler axes")
        n = self.grid.n_s
        terms = 2 * n - 1
        block = math.isqrt(terms - 1) + 1
        size = block * -(-terms // block)
        overlap = (self.h.T * np.conj(self.g)).ravel()
        offset = (np.arange(n)[:, None] - np.arange(n) + (n - 1)).ravel()
        weights = np.bincount(offset, overlap.real, size) + 1j * np.bincount(
            offset, overlap.imag, size
        )
        weights *= self.grid.cell / self.norm_constant
        table = weights.reshape(-1, block)
        table.flags.writeable = False  # shared cache
        return self.grid.d_omega_s, table


def _cross_path_weights(power, curves: SplitterCurves, cell: float):
    """(alpha, beta, norm) of the cross-path terms of |f|^2 = ``power``.

    |g|^2 = |f|^2 t_H r_V and |h|^2 = |f|^2 r_H t_V, so each Riemann sum
    is a bilinear form of the power grid with two edge curves.
    """
    rows = np.stack([curves.t_h, curves.r_h]) @ power
    weight_g = float(rows[0] @ curves.r_v) * cell
    weight_h = float(rows[1] @ curves.t_v) * cell
    norm = weight_g + weight_h
    if norm <= 1e-12:
        raise DegeneratePostSelectionError(
            "splitter produces no cross-path coincidences"
        )
    return weight_g / norm, weight_h / norm, norm


def _power(amplitude) -> np.ndarray:
    """|f|^2 of a complex grid."""
    return amplitude.real**2 + amplitude.imag**2


def post_select(jsa: JsaGrid, splitter: SplitterResponse) -> PostSelectedAmplitudes:
    """Split the pair amplitude into the two cross-path terms."""
    curves = sample_on_grid(splitter, jsa.grid)
    alpha, beta, norm = _cross_path_weights(
        _power(jsa.amplitude), curves, jsa.grid.cell
    )
    f = jsa.amplitude
    g = f * np.outer(np.sqrt(curves.t_h), np.sqrt(curves.r_v))
    h = f * np.outer(np.sqrt(curves.r_h), np.sqrt(curves.t_v))
    return PostSelectedAmplitudes(
        g=g,
        h=h,
        grid=jsa.grid,
        norm_constant=norm,
        neglected_fraction=float(max(0.0, 1.0 - norm)),
        alpha=alpha,
        beta=beta,
    )


def diagonal_weights(amps: PostSelectedAmplitudes):
    """Diagonal weights (alpha, beta) of the polarization density matrix."""
    return amps.alpha, amps.beta


def _coherence(amps: PostSelectedAmplitudes, tau, model=None) -> np.ndarray:
    """D at each delay in ``tau``, degraded to s D(tau - t0) by ``model``.

    Each difference index m = k1 B + k0 splits its phase factor into
    exp(i tau (k1 B - (n - 1)) d_omega) exp(i tau k0 d_omega): two tables
    of about sqrt(2n) exponentials per delay and one matrix product with
    the cached weight table, for any array of delays.
    """
    tau = np.asarray(tau, dtype=float)
    scale = 1.0
    if model is not None:
        tau = tau - model.time_offset
        scale = model.amplitude_scale
    d_omega, table = amps.difference_spectrum
    blocks, block = table.shape
    fine = np.exp(1j * np.multiply.outer(tau, np.arange(block) * d_omega))
    first = 1 - amps.grid.n_s
    coarse = np.exp(
        1j * np.multiply.outer(tau, (first + block * np.arange(blocks)) * d_omega)
    )
    return scale * np.sum(coarse * (fine @ table.T), axis=-1)


def d_parameter(
    amps: PostSelectedAmplitudes, tau: float, model: DegradationModel | None = None
) -> complex:
    """Complex degree of polarization entanglement at delay tau (s).

    With a degradation model the result is scale * D(tau - offset).
    """
    return complex(_coherence(amps, tau, model))


@dataclass(frozen=True)
class PolarizationDensityMatrix:
    """4x4 two-qubit density matrix over (HH, HV, VH, VV)."""

    elements: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.elements, dtype=complex)
        if rho.shape != (4, 4):
            raise InvalidStateError("density matrix must be 4x4")
        if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
            raise InvalidStateError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise InvalidStateError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < _EIGENVALUE_FLOOR:
            raise InvalidStateError("density matrix is not positive semidefinite")
        object.__setattr__(self, "elements", rho)


def density_matrix(alpha: float, beta: float, d: complex) -> PolarizationDensityMatrix:
    """Assemble the two-term density matrix from (alpha, beta, D)."""
    if abs(alpha + beta - 1.0) > 1e-9:
        raise DomainError("alpha + beta must equal 1")
    if alpha < 0 or beta < 0:
        raise DomainError("alpha and beta must be non-negative")
    bound = np.sqrt(alpha * beta)
    if abs(d) > bound + 1e-9:
        raise NonphysicalCoherenceError(
            f"|D| = {abs(d):.6g} exceeds sqrt(alpha*beta) = {bound:.6g}"
        )
    if abs(d) > bound:  # inside tolerance; clip onto the physical cone
        d = d * (bound / abs(d))
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = alpha
    rho[2, 2] = beta
    rho[2, 1] = d
    rho[1, 2] = np.conj(d)
    return PolarizationDensityMatrix(rho)


@dataclass(frozen=True)
class DelaySweep:
    """Delay-resolved record of (tau, D, alpha, beta, purity, phase)."""

    tau: np.ndarray
    d: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    purity: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=float)
        if np.any(np.diff(tau) <= 0):
            raise DomainError("sweep delays must be strictly increasing")
        expected = self.alpha**2 + self.beta**2 + 2.0 * np.abs(self.d) ** 2
        if np.max(np.abs(self.purity - expected)) > 1e-12:
            raise DomainError("purity identity violated in sweep record")


def _anchored_phase(d: np.ndarray) -> np.ndarray:
    """Unwrapped arg(D), anchored to (-pi, pi] at the sample of max |D|."""
    phase = np.unwrap(np.angle(d))
    anchor = phase[int(np.argmax(np.abs(d)))]
    return phase - 2.0 * np.pi * np.round(anchor / (2.0 * np.pi))


def _sweep_from_values(tau, d, alpha, beta) -> DelaySweep:
    d = np.asarray(d, dtype=complex)
    alpha_arr = np.full(d.shape, alpha, dtype=float)
    beta_arr = np.full(d.shape, beta, dtype=float)
    return DelaySweep(
        tau=np.asarray(tau, dtype=float),
        d=d,
        alpha=alpha_arr,
        beta=beta_arr,
        purity=alpha_arr**2 + beta_arr**2 + 2.0 * np.abs(d) ** 2,
        phase=_anchored_phase(d),
    )


def sweep_at(
    amps: PostSelectedAmplitudes, tau, model: DegradationModel | None = None
) -> DelaySweep:
    """Evaluate the (optionally degraded) coherence at increasing delays.

    Listed and uniform sweeps share this record, anchored unwrapped phase
    included.
    """
    alpha, beta = diagonal_weights(amps)
    return _sweep_from_values(tau, _coherence(amps, tau, model), alpha, beta)


def uniform_delays(tau_min: float, tau_max: float, n: int) -> np.ndarray:
    """n uniformly spaced delays from tau_min to tau_max (s)."""
    if not tau_min < tau_max:
        raise DomainError("need tau_min < tau_max")
    if n < 2:
        raise DomainError("need at least 2 sweep samples")
    return np.linspace(tau_min, tau_max, n)


def delay_sweep(
    amps: PostSelectedAmplitudes, tau_min: float, tau_max: float, n: int
) -> DelaySweep:
    """Evaluate the coherence on n uniformly spaced delays."""
    return sweep_at(amps, uniform_delays(tau_min, tau_max, n))


@dataclass(frozen=True)
class DegradationModel:
    """Empirical correction: scale the coherence and shift it in time."""

    amplitude_scale: float
    time_offset: float

    def __post_init__(self):
        if not 0.0 < self.amplitude_scale <= 1.0:
            raise DomainError("amplitude_scale must lie in (0, 1]")


def _interp_complex(x, xp, fp):
    return np.interp(x, xp, fp.real) + 1j * np.interp(x, xp, fp.imag)


def apply_degradation(sweep: DelaySweep, model: DegradationModel):
    """Scale and time-shift the sweep coherence.

    Returns (degraded sweep, coverage warning or None).  The shifted curve
    is resampled with linear interpolation in the complex plane; delays
    shifted outside the original window hold the boundary value.
    """
    shifted = sweep.tau - model.time_offset
    warning = None
    if shifted[-1] < sweep.tau[0] or shifted[0] > sweep.tau[-1]:
        warning = (
            "time offset moves the whole sweep support outside the window"
        )
    d = model.amplitude_scale * _interp_complex(shifted, sweep.tau, sweep.d)
    return (
        _sweep_from_values(sweep.tau, d, float(sweep.alpha[0]), float(sweep.beta[0])),
        warning,
    )


def fit_degradation(
    sweep: DelaySweep,
    observations,
    offset_resolution: float = 0.5e-15,
    offset_range: tuple[float, float] | None = None,
) -> DegradationModel:
    """Least-squares (scale, offset) fit to measured coherence values.

    ``observations`` is a sequence of (tau, D_measured).  The offset is
    scanned densely; the optimal real scale per offset is closed-form.
    """
    obs = list(observations)
    if len(obs) < 2:
        raise DomainError("need at least 2 observations")
    obs_tau = np.array([t for t, _ in obs], dtype=float)
    obs_d = np.array([d for _, d in obs], dtype=complex)
    if not (np.all(np.isfinite(obs_tau)) and np.all(np.isfinite(obs_d))):
        raise DomainError("observations must be finite")
    if np.all(np.abs(obs_d) == 0.0):
        raise UnidentifiableFitError("all observed coherences are zero")
    if offset_range is None:
        half_span = (sweep.tau[-1] - sweep.tau[0]) / 2.0
        offset_range = (-half_span, half_span)
    offsets = np.arange(offset_range[0], offset_range[1], offset_resolution)
    # one row per offset; each row repeats the arithmetic of a scalar scan
    theory = _interp_complex(obs_tau - offsets[:, None], sweep.tau, sweep.d)
    denom = np.sum(np.abs(theory) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.real(np.sum(np.conj(theory) * obs_d, axis=1)) / denom
    scale = np.minimum(1.0, scale)
    admissible = np.flatnonzero((denom != 0.0) & (scale > 0.0))
    if admissible.size == 0:
        raise UnidentifiableFitError("no admissible (scale, offset) found")
    scale = scale[admissible]
    residual = np.sum(
        np.abs(scale[:, None] * theory[admissible] - obs_d) ** 2, axis=1
    )
    best = int(np.argmin(residual))  # first of equal residuals
    return DegradationModel(
        amplitude_scale=float(scale[best]),
        time_offset=float(offsets[admissible[best]]),
    )


def write_sweep(path, sweep: DelaySweep) -> None:
    """Write the plot-ready sweep table (delays in fs at the boundary)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# tau_fs re_D im_D abs_D alpha beta purity phase_rad\n")
        for k in range(sweep.tau.size):
            fh.write(
                "%.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n"
                % (
                    sweep.tau[k] * 1e15,
                    sweep.d[k].real,
                    sweep.d[k].imag,
                    abs(sweep.d[k]),
                    sweep.alpha[k],
                    sweep.beta[k],
                    sweep.purity[k],
                    sweep.phase[k],
                )
            )


def write_density_matrix(path, rho: PolarizationDensityMatrix) -> None:
    """Write 16 lines of ``row col re im`` over the (HH, HV, VH, VV) order."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(4):
            for c in range(4):
                val = rho.elements[r, c]
                fh.write("%d %d %.17g %.17g\n" % (r, c, val.real, val.imag))


def read_density_matrix(path) -> PolarizationDensityMatrix:
    """Read a matrix written by :func:`write_density_matrix`."""
    from .errors import FormatError

    rho = np.zeros((4, 4), dtype=complex)
    seen = np.zeros((4, 4), dtype=bool)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise FormatError(f"{path}:{lineno}: expected 'row col re im'")
            r, c = int(parts[0]), int(parts[1])
            if not (0 <= r < 4 and 0 <= c < 4) or seen[r, c]:
                raise FormatError(f"{path}:{lineno}: bad or duplicate index")
            rho[r, c] = float(parts[2]) + 1j * float(parts[3])
            seen[r, c] = True
    if not seen.all():
        raise FormatError(f"{path}: missing matrix entries")
    return PolarizationDensityMatrix(rho)
