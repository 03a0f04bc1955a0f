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
    FormatError,
    InvalidStateError,
    NonphysicalCoherenceError,
    UnidentifiableFitError,
    fault_of,
    read_rows,
)
from .spectral import FrequencyGrid, JsaGrid, _antidiagonal_sums, _power

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class PostSelectedAmplitudes:
    """Cross-path amplitudes g, h on a common grid.

    g = f outer(sqrt t_H, sqrt r_V) and h = f outer(sqrt r_H, sqrt t_V) are
    kept as the pair amplitude ``amplitude`` (shared with the JSA, never
    written) and the edge ``curves``.  ``norm_constant`` is the shared
    normalization (the Riemann sum of |g|^2 + |h|^2); ``alpha`` and
    ``beta`` are the diagonal weights, the shares of |g|^2 and |h|^2 in
    the normalization.
    """

    amplitude: np.ndarray
    curves: SplitterCurves
    grid: FrequencyGrid
    norm_constant: float
    alpha: float
    beta: float

    @property
    def neglected_fraction(self) -> float:
        """The same-path probability dropped by post-selection."""
        return max(0.0, 1.0 - self.norm_constant)

    @cached_property
    def difference_spectrum(self) -> np.ndarray:
        """The table with D(tau) the sum over (k1, k0) of table[k1, k0]
        exp(i tau (k1 B + k0 - (n - 1)) d_omega), B = table.shape[1] and
        d_omega the grid step.

        Cell (j, k) of the overlap h(omega_i, omega_s) conj(g(omega_s,
        omega_i)) is f[k, j] conj(f[j, k]) sqrt(t_H t_V)[j] sqrt(r_H r_V)[k]
        and has difference frequency (j - k) d_omega, so summing each
        diagonal j - k collapses the grid onto 2n - 1 terms, zero-padded to
        a K x B table with B the ceiling of sqrt(2n - 1).  The sum runs over
        bands of rows, on the lanes of ``_map_bands``, so no grid-sized
        temporary is made.  Computed on first use.
        """
        n = self.grid.n
        terms = 2 * n - 1
        block = math.isqrt(terms - 1) + 1
        f = self.amplitude
        c = self.curves
        row_scale = np.sqrt(c.t_h * c.t_v)
        col_scale = np.sqrt(c.r_h * c.r_v)[:, None]

        def fill(rows, band):
            # band column k' holds grid row k = n - 1 - k' of f.  f[k, j] for
            # the band's j is copied to rows of k: reading the transpose of
            # f in place would stride across the grid
            cols = f[::-1, rows] * col_scale[::-1]
            cols *= row_scale[rows]
            # with columns reversed, diagonal j - k is anti-diagonal
            # (j - j0) + (n - 1 - k) of the band
            np.conjugate(f[rows, ::-1], out=band)
            band *= cols.T

        weights = np.zeros(block * -(-terms // block), dtype=complex)
        weights[:terms] = _antidiagonal_sums(n, fill, dtype=complex)
        weights *= self.grid.cell / self.norm_constant
        table = weights.reshape(-1, block)
        table.flags.writeable = False  # shared cache
        return table


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


def post_select(jsa: JsaGrid, splitter: SplitterResponse) -> PostSelectedAmplitudes:
    """Split the pair amplitude into the two cross-path terms."""
    curves = sample_on_grid(splitter, jsa.grid)
    alpha, beta, norm = _cross_path_weights(
        _power(jsa.amplitude), curves, jsa.grid.cell
    )
    return PostSelectedAmplitudes(
        amplitude=jsa.amplitude,
        curves=curves,
        grid=jsa.grid,
        norm_constant=norm,
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
    d_omega = amps.grid.d_omega
    table = amps.difference_spectrum
    blocks, block = table.shape
    fine = np.exp(1j * np.multiply.outer(tau, np.arange(block) * d_omega))
    first = 1 - amps.grid.n
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
        if not np.all(np.isfinite(rho)):
            raise InvalidStateError("density matrix elements must be finite")
        if np.max(np.abs(rho - rho.conj().T)) > _HERMITICITY_TOL:
            raise InvalidStateError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > _TRACE_TOL or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise InvalidStateError("density matrix trace is not 1")
        if np.linalg.eigvalsh(rho).min() < _EIGENVALUE_FLOOR:
            raise InvalidStateError("density matrix is not positive semidefinite")
        object.__setattr__(self, "elements", rho)


def _as_matrix(rho) -> np.ndarray:
    """The elements of a :class:`PolarizationDensityMatrix`, or a 4x4 array
    taken as complex."""
    if isinstance(rho, PolarizationDensityMatrix):
        return rho.elements
    return np.asarray(rho, dtype=complex)


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
    """Coherence D at strictly increasing delays tau, with the diagonal
    weights alpha and beta; purity and phase are derived from them."""

    tau: np.ndarray
    d: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        if np.any(np.diff(self.tau) <= 0):
            raise DomainError("sweep delays must be strictly increasing")

    @cached_property
    def purity(self) -> np.ndarray:
        """alpha^2 + beta^2 + 2 |D|^2 at each delay."""
        alpha, beta = self.alpha, self.beta
        # alpha * alpha, as NumPy squares an array; a float's ** calls pow
        return alpha * alpha + beta * beta + 2.0 * np.abs(self.d) ** 2

    @cached_property
    def phase(self) -> np.ndarray:
        """Unwrapped arg(D), anchored to (-pi, pi] at the delay of max |D|."""
        phase = np.unwrap(np.angle(self.d))
        anchor = phase[int(np.argmax(np.abs(self.d)))]
        return phase - 2.0 * np.pi * np.round(anchor / (2.0 * np.pi))


def sweep_at(
    amps: PostSelectedAmplitudes, tau, model: DegradationModel | None = None
) -> DelaySweep:
    """Evaluate the (optionally degraded) coherence at increasing delays.

    Listed and uniform sweeps share this record, anchored unwrapped phase
    included.
    """
    tau = np.asarray(tau, dtype=float)
    return DelaySweep(tau, _coherence(amps, tau, model), amps.alpha, amps.beta)


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
        if not np.isfinite(self.time_offset):
            raise DomainError("time_offset must be finite")


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
    return DelaySweep(sweep.tau, d, sweep.alpha, sweep.beta), warning


#: Step (s) of the offset scan of :func:`fit_degradation`.
_OFFSET_RESOLUTION = 0.5e-15


def check_observations(observations):
    """The delays and coherences of ``observations``, a sequence of (tau,
    D_measured), as arrays; a fit needs at least two, all finite, and not
    every D zero."""
    obs = list(observations)
    if len(obs) < 2:
        raise DomainError("need at least 2 observations")
    obs_tau = np.array([t for t, _ in obs], dtype=float)
    obs_d = np.array([d for _, d in obs], dtype=complex)
    if not (np.all(np.isfinite(obs_tau)) and np.all(np.isfinite(obs_d))):
        raise DomainError("observations must be finite")
    if np.all(np.abs(obs_d) == 0.0):
        raise UnidentifiableFitError("all observed coherences are zero")
    return obs_tau, obs_d


def fit_degradation(sweep: DelaySweep, observations) -> DegradationModel:
    """Least-squares (scale, offset) fit to measured coherence values.

    ``observations`` is a sequence of (tau, D_measured).  The offset is
    scanned in steps of _OFFSET_RESOLUTION over plus or minus half the
    sweep window; the optimal real scale per offset is closed-form.  Only
    offsets that shift every observation into the sweep window are
    scanned, since outside it the sweep holds its boundary value.
    """
    obs_tau, obs_d = check_observations(observations)
    half_span = (sweep.tau[-1] - sweep.tau[0]) / 2.0
    offsets = np.arange(-half_span, half_span, _OFFSET_RESOLUTION)
    # one row per offset; each row repeats the arithmetic of a scalar scan
    shifted = obs_tau - offsets[:, None]
    inside = np.all((shifted >= sweep.tau[0]) & (shifted <= sweep.tau[-1]), axis=1)
    if not inside.any():
        raise DomainError(
            "observations at %.6g to %.6g fs: no time offset within +-%.6g fs"
            " shifts them all into the sweep window %.6g to %.6g fs"
            % (obs_tau.min() * 1e15, obs_tau.max() * 1e15, half_span * 1e15,
               sweep.tau[0] * 1e15, sweep.tau[-1] * 1e15)
        )
    offsets = offsets[inside]
    theory = _interp_complex(shifted[inside], sweep.tau, sweep.d)
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
    rows = zip(sweep.tau * 1e15, sweep.d, sweep.purity, sweep.phase)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# tau_fs re_D im_D abs_D alpha beta purity phase_rad\n")
        for tau_fs, d, purity, phase in rows:
            fh.write(
                "%.17g %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n"
                % (tau_fs, d.real, d.imag, abs(d), sweep.alpha, sweep.beta, purity, phase)
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
    rho = np.zeros((4, 4), dtype=complex)
    seen = np.zeros((4, 4), dtype=bool)
    for lineno, (r, c, real, imag) in read_rows(
        path, "row col re im", (int, int, float, float)
    ):
        if not (0 <= r < 4 and 0 <= c < 4) or seen[r, c]:
            raise FormatError(f"{path}:{lineno}: bad or duplicate index")
        rho[r, c] = complex(real, imag)
        seen[r, c] = True
    if not seen.all():
        raise FormatError(f"{path}: missing matrix entries")
    with fault_of(path):
        return PolarizationDensityMatrix(rho)
