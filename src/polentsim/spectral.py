"""Joint spectral amplitude of the type-II down-conversion pair.

The two-photon amplitude is modeled as a Gaussian pump envelope times a
sinc phase-matching factor with first-order (group-index) dispersion,
discretized on a uniform angular-frequency grid and normalized so that
the Riemann sum of |f|^2 equals one.
"""

from __future__ import annotations

import math
import operator
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    EmptySupportError,
    FormatError,
    ResolutionError,
    fault_of,
    parse_header,
    text_file,
)
from .textfloat import format_pairs

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


def _point_count(n) -> int:
    """n as a Python int of at least 2."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"grid point count must be an integer, got {n!r}") from None
    if n < 2:
        raise DomainError(f"grid needs at least 2 points, got {n}")
    return n


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency axis (rad/s) shared by signal and idler.

    The coherence D(tau) pairs g(omega_s, omega_i) with h(omega_i,
    omega_s), so it exists only where both photons are sampled on the same
    axis; the grid is ``axis`` x ``axis``.  It holds the first point, the
    exact step and the point count, and derives ``axis`` from them.
    """

    start: float
    d_omega: float
    n: int

    def __post_init__(self):
        n = _point_count(self.n)
        start, step = float(self.start), float(self.d_omega)
        if not (math.isfinite(start) and math.isfinite(step)):
            raise DomainError(f"grid start and step must be finite, got {start}, {step}")
        if step <= 0:
            raise DomainError(f"grid step must be positive, got {step}")
        # start + k * step is monotone in k: a finite last point bounds them all
        try:
            last = start + (n - 1) * step
        except OverflowError:  # n - 1 beyond the float range
            last = math.inf
        if not math.isfinite(last):
            raise DomainError(
                f"grid's last point {start} + {n - 1} * {step} is not finite"
            )
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "d_omega", step)
        object.__setattr__(self, "n", n)

    @cached_property
    def axis(self) -> np.ndarray:
        """The n points start + k * d_omega (read-only)."""
        axis = self.start + np.arange(self.n) * self.d_omega
        axis.flags.writeable = False
        return axis

    @property
    def omega_s_axis(self) -> np.ndarray:
        """The signal axis, which is ``axis``."""
        return self.axis

    @property
    def omega_i_axis(self) -> np.ndarray:
        """The idler axis, which is ``axis``."""
        return self.axis

    @property
    def cell(self) -> float:
        """Area element d_omega^2."""
        return self.d_omega * self.d_omega

    @classmethod
    def centered(cls, center_wavelength, width_wavelength, n):
        """Cell-centered grid of n points spanning a wavelength window.

        Cell-centered sampling makes the plain Riemann sums used throughout
        converge at second order, which the grid-refinement checks rely on.
        """
        if width_wavelength <= 0:
            raise DomainError("window width must be positive")
        lam_lo = center_wavelength - width_wavelength / 2.0
        lam_hi = center_wavelength + width_wavelength / 2.0
        if lam_lo <= 0:
            raise DomainError("window extends to non-positive wavelengths")
        n = _point_count(n)
        w_lo = float(wavelength_to_omega(lam_hi))
        w_hi = float(wavelength_to_omega(lam_lo))
        step = (w_hi - w_lo) / n
        return cls(w_lo + 0.5 * step, step, n)


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
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite")
        if not math.isfinite(self.intrinsic_delay_comp):
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
            if not (math.isfinite(value) and value >= 1.0):
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
        if amp.shape != (self.grid.n, self.grid.n):
            raise DomainError("amplitude shape does not match the grid")
        object.__setattr__(self, "amplitude", amp)
        norm = self.norm()
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise DomainError("joint spectral amplitude is not normalized")

    def norm(self) -> float:
        """Riemann sum of |f|^2 over the grid."""
        return _riemann_power(self.amplitude, self.grid.cell)


def _gaussian(u, out=None):
    """Pump amplitude at detuning u, in units of the intensity FWHM,
    written to ``out`` when it is given (``out`` may be ``u``)."""
    u_sq = np.multiply(u, u, out=out)
    return np.exp(np.multiply(-2.0 * np.log(2.0), u_sq, out=out), out=out)


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


def _sinc(x):
    """sin(x)/x with the limit 1 at x = 0."""
    x = np.asarray(x, dtype=float)
    return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)


#: Grid values per band of rows, for every band kernel: each works on one
#: band at a time, so no grid-sized temporary is made, and two lanes' bands
#: of the difference table, each with its whole-width column block, stay
#: within 5 MB at 512 points.
_BAND_VALUES = 3 << 14

#: Below this |x| the sinc is sin(x)/x of the summed argument: the
#: angle-sum numerator is exact to a few ulp of 1, which the division
#: would magnify near the ridge.
_SINC_GUARD = 0.05


def _row_bands(n: int) -> list:
    """Slices of consecutive rows of an n x n grid holding about
    _BAND_VALUES values each (at least one row each), the last band the
    rest."""
    step = max(1, _BAND_VALUES // n)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


#: The variables OpenBLAS and MKL take their thread counts from, the first
#: one set winning; both read OMP_NUM_THREADS last.
_BLAS_THREAD_VARIABLES = (
    ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
)


def _blas_on_one_thread() -> bool:
    """Whether the environment sets BLAS to one thread: for OpenBLAS and
    for MKL alike, the first of its variables that is set reads 1.

    BLAS reads them when numpy loads it, so they have to be set before
    numpy is imported.  A BLAS on more threads leaves a worker spinning
    after each call, which takes the second CPU from a helper lane.
    """
    for names in _BLAS_THREAD_VARIABLES:
        values = [os.environ[name] for name in names if os.environ.get(name)]
        if not values or values[0].strip() != "1":
            return False
    return True


def _lane_count() -> int:
    """2 when this process may run on two or more CPUs and BLAS runs on
    one thread, otherwise 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = 1
    return 2 if cpus >= 2 and _blas_on_one_thread() else 1


def _map_bands(band, bands) -> list:
    """``band(rows)`` for each ``rows`` in ``bands``, in band order.

    With two lanes the calling thread and one helper thread each take the
    next band not yet taken until none is left; NumPy releases the
    interpreter lock inside its loops, so the two overlap, and a lane that
    falls behind (its CPU taken by another process) leaves the rest of the
    bands to the other.  A band's result is made by the same operations
    on either lane.  A lane that raises leaves no band untaken, so the
    other stops after the band it is on.  The helper is always joined, and
    an exception it raised is raised here.
    """
    results = [None] * len(bands)
    untaken = iter(range(len(bands)))
    taking = threading.Lock()

    def run():
        try:
            while True:
                with taking:
                    i = next(untaken, None)
                if i is None:
                    return
                results[i] = band(bands[i])
        except BaseException:
            with taking:  # the other lane stops after the band it is on
                for _ in untaken:
                    pass
            raise

    if min(_lane_count(), len(bands)) == 1:
        run()
        return results
    failure = []

    def helper():
        try:
            run()
        except BaseException as exc:  # raised again on the calling thread
            failure.append(exc)

    thread = threading.Thread(target=helper, name="polentsim-band-lane")
    thread.start()
    try:
        run()
    finally:
        thread.join()
    if failure:
        raise failure[0]
    return results


def _antidiagonal_sums(n: int, fill, dtype=float) -> np.ndarray:
    """Sums along j + k of an n x n grid, one band of rows at a time.

    ``fill(rows, band)`` writes grid rows ``rows`` into ``band``; the bands
    run on the lanes of :func:`_map_bands`.  A band of r rows is laid out
    at row length n + r and read back at row length n + r - 1, which
    shifts row i by i places and puts cell (i, k) in column i + k; the
    column sums are then the band's anti-diagonal sums, and the bands'
    sums are added in band order.  No grid-sized temporary or index array
    is made.
    """

    def band_sums(rows):
        r = rows.stop - rows.start
        flat = np.empty(r * (n + r), dtype=dtype)
        layout = flat.reshape(r, n + r)
        layout[:, n:] = 0
        fill(rows, layout[:, :n])
        skewed = flat[: r * (n + r - 1)].reshape(r, n + r - 1)
        return skewed.sum(axis=0)

    bands = _row_bands(n)
    sums = np.zeros(2 * n - 1, dtype=dtype)
    for rows, band_sum in zip(bands, _map_bands(band_sums, bands)):
        sums[rows.start : rows.stop + n - 1] += band_sum
    return sums


def _band_power(f, out) -> None:
    """Write |f|^2 = re^2 + im^2 of the complex band ``f`` into ``out``."""
    np.square(f.real, out=out)
    out += np.square(f.imag)


def _power(amplitude) -> np.ndarray:
    """|f|^2 of a complex n x n grid, one band at a time on the lanes of
    :func:`_map_bands`; it has no sums, so its bits do not depend on the
    bands."""
    power = np.empty(amplitude.shape)
    _map_bands(
        lambda rows: _band_power(amplitude[rows], power[rows]),
        _row_bands(len(amplitude)),
    )
    return power


def build_jsa(model: PdcModel, grid: FrequencyGrid) -> JsaGrid:
    """Evaluate pump x phase-matching on the grid and normalize.

    dk L/2 = x = x_s + x_i is a sum of a signal and an idler term, so
    exp(i x) is the outer product of two axis vectors, and its imaginary
    part sin x_s cos x_i + cos x_s sin x_i is the sinc numerator; only the
    pump Gaussian and one division are evaluated per cell.  Cells with |x|
    below _SINC_GUARD take sin(x)/x directly.  The grid is filled one band
    of rows at a time, on the lanes of :func:`_map_bands`, and scaled once
    by the Riemann norm, the bands' norms added in band order.

    The discarded-norm fraction is the share of the whole plane's norm
    that falls outside the grid window.  |f|^2 = G(sigma)^2 sinc^2(x) with
    sigma = omega_s + omega_i and x = dk L/2 both linear in the two
    frequencies, so that norm is dw_p sqrt(pi / (4 ln 2)) pi / |J|, with
    dw_p the pump intensity FWHM and J = (L / 2c)(n_gs - n_gi).  With equal
    signal and idler group indices (J = 0) the sinc^2 ridge never ends and
    the fraction is its limit, exactly 1.
    """
    points = model.pump_bandwidth_omega / (2.0 * grid.d_omega)
    if points < 8.0:
        raise ResolutionError(
            "grid too coarse across the pump bandwidth "
            f"({points:.1f} points, need >= 8)"
        )
    if grid.start <= 0:
        raise DomainError("frequencies must be positive")
    axis = grid.axis
    signal, idler, constant = _mismatch_terms(model, axis, axis)
    half_length = model.crystal_length / (2.0 * C)
    x_s = (signal + constant) * half_length
    x_i = idler * half_length
    # omega - omega_p / 2 is exact near degeneracy; the pump detuning is
    # the sum of the signal and idler detunings
    u = (axis - model.omega_pump_center / 2.0) / model.pump_bandwidth_omega
    phase_s, phase_i = np.exp(1j * x_s), np.exp(1j * x_i)
    amplitude = np.empty((grid.n, grid.n), dtype=complex)

    def fill(rows):
        """Write the band's unnormalized amplitude; return its norm."""
        band = amplitude[rows]
        np.multiply.outer(phase_s[rows], phase_i, out=band)
        x = np.add.outer(x_s[rows], x_i)
        near = np.flatnonzero(np.abs(x) < _SINC_GUARD)
        cells = x.reshape(-1)  # a view: x is a new contiguous array
        x_near = cells[near]
        cells[near] = 1.0  # no division by zero; these cells are set below
        # Im(e^{i x_s} e^{i x_i}) is sin(x_s + x_i) by the angle-sum identity
        envelope = np.divide(band.imag, x)
        envelope.reshape(-1)[near] = _sinc(x_near)
        envelope *= _gaussian(np.add.outer(u[rows], u, out=x), out=x)
        band *= envelope
        return float(np.vdot(envelope, envelope))

    norm_in = 0.0
    for band_norm in _map_bands(fill, _row_bands(grid.n)):
        norm_in += band_norm
    norm_in *= grid.cell
    if not norm_in > 0:
        raise EmptySupportError("amplitude has zero norm on this grid")
    # norm_in / (whole-plane norm), written as a product so that J = 0
    # gives the limit 1 without a division
    j = half_length * (model.group_index_signal - model.group_index_idler)
    kept = norm_in * abs(j) / (
        model.pump_bandwidth_omega * np.sqrt(np.pi / (4.0 * np.log(2.0))) * np.pi
    )
    discarded = max(0.0, 1.0 - float(kept))
    amplitude *= 1.0 / np.sqrt(norm_in)
    return JsaGrid(grid, amplitude, discarded_fraction=discarded)


def _window(axis, lam_lo, lam_hi) -> slice:
    """Index range of a strictly increasing frequency axis whose
    wavelengths lie in [lam_lo, lam_hi]; empty when none do."""
    lam = omega_to_wavelength(axis)
    inside = np.flatnonzero((lam >= lam_lo) & (lam <= lam_hi))
    if inside.size == 0:
        return slice(0, 0)
    # wavelength is monotone in frequency, so the window is contiguous
    return slice(inside[0], inside[-1] + 1)


def apply_bandpass(jsa: JsaGrid, center_wavelength, width) -> JsaGrid:
    """Top-hat band-pass on both photons: crop to the window, renormalize.

    Wavelength is monotone in frequency, so the window is one index range
    of the shared axis, and the result is that block on the cropped grid.
    The discarded-norm fraction of the result is the out-of-window share
    of the input norm.
    """
    if width <= 0:
        raise DomainError("filter width must be positive")
    lam_lo = center_wavelength - width / 2.0
    lam_hi = center_wavelength + width / 2.0
    grid = jsa.grid
    w = _window(grid.axis, lam_lo, lam_hi)
    if w.stop - w.start < 2:
        raise EmptySupportError("band-pass window holds fewer than 2 grid points")
    # one contiguous copy: the norm and the scaling then read it in order
    block = jsa.amplitude[w, w].copy()
    norm_in = _riemann_power(block, grid.cell)
    if norm_in <= 0:
        raise EmptySupportError("band-pass window has no amplitude support")
    discarded = float(1.0 - norm_in / jsa.norm())
    block *= 1.0 / np.sqrt(norm_in)
    # the crop keeps its parent's step: only the first point is new
    cropped = FrequencyGrid(grid.axis[w.start], grid.d_omega, w.stop - w.start)
    return JsaGrid(cropped, block, discarded_fraction=discarded)


def antidiagonal_marginal(jsa: JsaGrid):
    """Marginal of |f|^2 over the signal+idler sum frequency.

    Returns (sum_frequencies, density): cell (j, k) has sum frequency
    2 omega[0] + (j + k) d_omega, so the sums fall on a uniform axis of
    step d_omega.
    """
    grid = jsa.grid
    f = jsa.amplitude
    density = _antidiagonal_sums(grid.n, lambda rows, band: _band_power(f[rows], band))
    sums = 2.0 * grid.start + np.arange(2 * grid.n - 1) * grid.d_omega
    return sums, density * grid.d_omega


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
        frac = (half - density[i]) / (density[j] - density[i])
        return axis[i] + frac * (axis[j] - axis[i])

    left = _cross(lo - 1, lo) if lo > 0 else axis[0]
    right = _cross(hi + 1, hi) if hi < density.size - 1 else axis[-1]
    return float(right - left)


#: Real values formatted per call of :func:`format_pairs`: even, so that
#: a block holds whole pairs, and few enough that a block's arrays stay in
#: the processor cache and the text of one block is held at a time.
_WRITE_BLOCK_VALUES = 1 << 13

#: Bytes of a leaf of the sidecar's digest, a part of the file format: the
#: table's bytes and then the amplitude's are cut into leaves of this size,
#: the last leaf of each part shorter.
_TABLE_CHUNK = 1 << 19


def _sidecar(path) -> str:
    """The binary sidecar :func:`write_jsa` writes beside the table."""
    return os.fspath(path) + ".bin"


# The sidecar's digest is the SHA-256 of the SHA-256 digests of its leaves,
# the table's leaves first (a Merkle tree of one level: R. C. Merkle,
# CRYPTO '87).  The leaves are hashed independently, so a read hashes them
# on the band lanes; only the functions below call hashlib, which is
# imported on first use because it adds milliseconds to start-up.


def _leaf_digest(leaf) -> bytes:
    """The SHA-256 of one leaf (``hashlib`` lets other threads run while
    it hashes more than 2 KiB)."""
    import hashlib

    return hashlib.sha256(leaf).digest()


def _root(leaf_digests) -> bytes:
    """The sidecar's digest of the leaves whose digests are given, in
    order."""
    import hashlib

    return hashlib.sha256(b"".join(leaf_digests)).digest()


class _Leaves:
    """The leaf digests of a byte stream fed in pieces of any size: each
    piece goes into the open leaf, and a leaf is closed when it holds
    _TABLE_CHUNK bytes."""

    def __init__(self):
        self.digests = []
        self._leaf, self._room = None, 0  # no leaf open

    def feed(self, data) -> None:
        import hashlib

        data = memoryview(data)
        while data:
            if not self._room:
                self._leaf, self._room = hashlib.sha256(), _TABLE_CHUNK
            piece, data = data[: self._room], data[self._room :]
            self._leaf.update(piece)
            self._room -= len(piece)
            if not self._room:
                self.digests.append(self._leaf.digest())

    def close(self) -> list:
        """The digests of every leaf, a last short leaf closed."""
        if self._room:
            self.digests.append(self._leaf.digest())
        return self.digests


def _leaves(array) -> list:
    """The consecutive _TABLE_CHUNK-byte leaves of a contiguous array's
    bytes, as views."""
    data = array.reshape(-1).view(np.uint8)
    return [data[at : at + _TABLE_CHUNK] for at in range(0, data.size, _TABLE_CHUNK)]


def write_jsa(path, jsa: JsaGrid) -> None:
    """Write the line-oriented JSA table (SI units, full precision), then
    its binary sidecar ``path + ".bin"``.

    Each value is written as ``%.17g`` writes it, by :func:`format_pairs`.
    The sidecar holds the 32-byte digest of the table's bytes and the
    amplitude's bytes, then those amplitude bytes: n * n little-endian
    complex128 values in C order, so that the digest means the same on any
    host.  Each block of text goes into the digest's leaves as it is
    written, so the text is made once and never read back.
    """
    grid = jsa.grid
    amplitude = np.ascontiguousarray(jsa.amplitude, dtype="<c16")
    text = _Leaves()
    with open(path, "wb") as fh:
        header = b"# %d %d %.17g %.17g %.17g %.17g\n" % (
            grid.n, grid.n, grid.start, grid.d_omega, grid.start, grid.d_omega
        )
        text.feed(header)
        fh.write(header)
        values = amplitude.reshape(-1).view("<f8")
        for start in range(0, values.size, _WRITE_BLOCK_VALUES):
            block = format_pairs(values[start : start + _WRITE_BLOCK_VALUES])
            text.feed(block)
            fh.write(block)
    digest = _root(text.close() + [_leaf_digest(leaf) for leaf in _leaves(amplitude)])
    with open(_sidecar(path), "wb") as fh:
        fh.write(digest)
        fh.write(amplitude)


def read_jsa(path) -> JsaGrid:
    """Read a JSA table written by :func:`write_jsa`.

    The amplitude comes from the table's sidecar when the sidecar's digest
    matches the table's bytes and that amplitude; otherwise ``np.loadtxt``
    parses the table's text.  Both give the same bits and pass the same
    checks.
    """
    with text_file(path) as fh:
        n_s, n_i, s_min, s_step, i_min, i_step = parse_header(
            path, 1, fh.readline(), "# n_s n_i start_s step_s start_i step_i",
            (int, int, float, float, float, float),
        )
        with fault_of(path, 1):
            # the axis is derived lazily: a huge n allocates nothing here
            grid = FrequencyGrid(s_min, s_step, n_s)
        if (n_i, i_min, i_step) != (n_s, s_min, s_step):
            raise FormatError(f"{path}:1: signal and idler axes must be identical")
        values = _cached_pairs(path, n_s)
        if values is None:
            try:
                with warnings.catch_warnings():
                    # a table of no rows is short, which the row count reports
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    values = np.loadtxt(fh, dtype=float, ndmin=2)
            except UnicodeDecodeError:
                raise  # text_file's fault, the same as in the header
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from exc
    if values.size and values.shape[1] != 2:
        raise FormatError(f"{path}: expected 2 values per row, found {values.shape[1]}")
    if values.shape[0] != n_s * n_s:
        raise FormatError(
            f"{path}: expected {n_s * n_s} complex rows, found {values.shape[0]}"
        )
    if not np.all(np.isfinite(values)):
        raise FormatError(f"{path}: values must be finite")
    # a view keeps every bit, the sign of -0.0 included
    amp = values.view(complex).reshape(n_s, n_s)
    with fault_of(path):
        return JsaGrid(grid, amp)


def _cached_pairs(path, n):
    """The (re, im) rows of the amplitude held in the sidecar of the table
    at ``path``, or None unless the sidecar is 32 + 16 n**2 bytes long and
    opens with the digest of the table's bytes and of the amplitude it
    holds.

    The leaves are hashed on the lanes of :func:`_map_bands`.  Each lane
    reads the table's leaves through a file object of its own into one
    buffer of its own, by seek and ``readinto``: a positioned read that
    makes no new buffer per leaf, and a table cut short under the read
    reads short, which fails the digest.
    """
    try:
        with open(_sidecar(path), "rb") as fh:
            # the size first: a header's n allocates nothing the file lacks
            if os.fstat(fh.fileno()).st_size != 32 + 16 * n * n:
                return None
            digest = fh.read(32)
            amplitude = np.empty(n * n, dtype="<c16")
            fh.readinto(amplitude)  # a short read fails the digest below
        table_leaves = range(0, os.stat(path).st_size, _TABLE_CHUNK)
    except OSError:
        return None
    amplitude_leaves = _leaves(amplitude)
    lanes = threading.local()  # each lane's table file and leaf buffer
    opened = []

    def leaf_digest(i):
        if i >= len(table_leaves):
            return _leaf_digest(amplitude_leaves[i - len(table_leaves)])
        if not hasattr(lanes, "table"):
            lanes.table = open(path, "rb")
            opened.append(lanes.table)
            lanes.buffer = bytearray(_TABLE_CHUNK)
        lanes.table.seek(table_leaves[i])
        size = lanes.table.readinto(lanes.buffer)
        return _leaf_digest(memoryview(lanes.buffer)[:size])

    try:
        leaves = _map_bands(leaf_digest, range(len(table_leaves) + len(amplitude_leaves)))
    except OSError:
        return None
    finally:
        for table in opened:
            table.close()
    if digest != _root(leaves):
        return None
    return amplitude.astype(complex, copy=False).view(float).reshape(n * n, 2)
