"""Tests for post-selection, the coherence parameter, and delay sweeps."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim import calibrate, jointstate, metrics
from polentsim.calibrate import fit_edge_split, split_edges
from polentsim.dichroic import SplitterResponse, sample_on_grid
from polentsim.errors import (
    DegeneratePostSelectionError,
    DomainError,
    InvalidStateError,
    NonphysicalCoherenceError,
    UnidentifiableFitError,
)
from polentsim.jointstate import (
    DegradationModel,
    DelaySweep,
    PolarizationDensityMatrix,
    _coherence,
    _cross_path_weights,
    _interp_complex,
    _power,
    apply_degradation,
    d_parameter,
    delay_sweep,
    density_matrix,
    diagonal_weights,
    fit_degradation,
    post_select,
    read_density_matrix,
    sweep_at,
    write_density_matrix,
    write_sweep,
)
from polentsim.spectral import (
    _BAND_VALUES,
    FrequencyGrid,
    PdcModel,
    build_jsa,
)
from spectral_oracles import normalized_jsa
from state_oracles import cross_amplitudes

MODEL = PdcModel()
GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, n=256)
SPLIT = SplitterResponse(
    edge_wavelength_h=1533.55e-9, edge_wavelength_v=1536.85e-9
)


def random_jsa(rng, n=8):
    grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=n)
    amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return normalized_jsa(grid, amp)


def random_splitter(rng):
    return SplitterResponse(
        edge_wavelength_h=(1525 + 20 * rng.random()) * 1e-9,
        edge_wavelength_v=(1525 + 20 * rng.random()) * 1e-9,
        step_width=(2 + 10 * rng.random()) * 1e-9,
        transmit_long=bool(rng.integers(2)),
    )


def direct_coherence(amps, tau):
    """O(n^2) double sum of h(omega_i, omega_s) conj(g) e^{i tau (omega_s - omega_i)}."""
    ws = amps.grid.axis[:, None]
    wi = amps.grid.axis[None, :]
    g, h = cross_amplitudes(amps)
    terms = h.T * np.conj(g) * np.exp(1j * tau * (ws - wi))
    return complex(np.sum(terms) * amps.grid.cell / amps.norm_constant)


def loop_reference(jsa, splitter, tau):
    """Scalar-loop evaluation of (alpha, beta, D) from first principles.

    Re-derives the cross-path amplitudes point by point and performs the
    normalization and coherence sums with explicit Python loops, with no
    shared code path with the vectorized pipeline.
    """
    ws = wi = jsa.grid.axis
    cell = jsa.grid.cell
    n_s = n_i = jsa.grid.n
    g = np.zeros((n_s, n_i), dtype=complex)
    h = np.zeros((n_s, n_i), dtype=complex)
    for j in range(n_s):
        for k in range(n_i):
            t_h = splitter.transmission(ws[j], "H")
            r_h = 1.0 - splitter.transmission(ws[j], "H")
            t_v = splitter.transmission(wi[k], "V")
            r_v = 1.0 - splitter.transmission(wi[k], "V")
            g[j, k] = jsa.amplitude[j, k] * np.sqrt(t_h * r_v)
            h[j, k] = jsa.amplitude[j, k] * np.sqrt(r_h * t_v)
    norm = 0.0
    for j in range(n_s):
        for k in range(n_i):
            norm += (abs(g[j, k]) ** 2 + abs(h[j, k]) ** 2) * cell
    alpha = beta = 0.0
    d = 0.0 + 0.0j
    for j in range(n_s):
        for k in range(n_i):
            alpha += abs(g[j, k]) ** 2 * cell / norm
            beta += abs(h[j, k]) ** 2 * cell / norm
            d += (
                np.exp(1j * tau * (ws[j] - wi[k]))
                * h[k, j]
                * np.conj(g[j, k])
                * cell
                / norm
            )
    return alpha, beta, d


class TestPostSelect:
    def test_weights_sum_to_one(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        alpha, beta = diagonal_weights(amps)
        assert alpha + beta == pytest.approx(1.0, abs=1e-12)
        assert 0 < amps.neglected_fraction < 1

    def test_balanced_edges_give_nearly_balanced_weights(self):
        # the signal-idler group-index difference leaves a small residual
        # asymmetry even with identical H and V edges
        amps = post_select(build_jsa(MODEL, GRID), SplitterResponse())
        alpha, beta = diagonal_weights(amps)
        assert alpha == pytest.approx(beta, abs=1e-3)

    def test_degenerate_splitter_rejected(self):
        # edge far outside the grid: everything transmits, nothing crosses
        resp = SplitterResponse(
            edge_wavelength_h=1400e-9, edge_wavelength_v=1400e-9,
            step_width=1e-10,
        )
        with pytest.raises(DegeneratePostSelectionError):
            post_select(build_jsa(MODEL, GRID), resp)


    def test_cross_path_amplitudes(self):
        jsa = random_jsa(np.random.default_rng(3), n=16)
        splitter = random_splitter(np.random.default_rng(4))
        amps = post_select(jsa, splitter)
        assert amps.amplitude is jsa.amplitude
        # g and h are f times the edge curves (see cross_amplitudes)
        c = sample_on_grid(splitter, jsa.grid)
        for name in ("t_h", "r_h", "t_v", "r_v"):
            assert np.array_equal(getattr(amps.curves, name), getattr(c, name))

    def test_coherence_working_set_is_one_band(self, set_lanes):
        """post_select and the difference table allocate well under one
        512-point grid (4 MiB), on one lane or two, and leave the shared
        amplitude as it was."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        before = jsa.amplitude.copy()
        for lanes in (1, 2):
            set_lanes(lanes)
            tracemalloc.start()
            try:
                post_select(jsa, SPLIT).difference_spectrum
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 5e6, f"{lanes} lanes"
            assert np.array_equal(jsa.amplitude, before)

    def test_difference_table_holds_one_band_at_a_time(self, set_lanes):
        """On one lane the 512-point difference table holds one band's
        layout (0.93 MB) and column block (0.79 MB) and the ufuncs' fixed
        buffers (0.39 MB), 2.2 MB in all: one more complex band-sized
        temporary (0.79 MB) takes it past 2.5 MB, on every run."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        set_lanes(1)
        amps = post_select(jsa, SPLIT)
        tracemalloc.start()
        try:
            amps.difference_spectrum
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    def test_post_select_holds_one_power_grid(self, set_lanes):
        """At 1024 points post_select holds the real |f|^2 grid (n^2 * 8 B)
        and at most 1 MB besides, on one lane or two."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=1024))
        for lanes in (1, 2):
            set_lanes(lanes)
            tracemalloc.start()
            try:
                post_select(jsa, SPLIT)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1024 * 1024 * 8 + 1e6, f"{lanes} lanes"


class TestLoopOracle:
    def test_matches_vectorized_pipeline(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            jsa = random_jsa(rng)
            splitter = random_splitter(rng)
            tau = float(rng.uniform(-200e-15, 200e-15))
            amps = post_select(jsa, splitter)
            alpha, beta = diagonal_weights(amps)
            d = d_parameter(amps, tau)
            ref_a, ref_b, ref_d = loop_reference(jsa, splitter, tau)
            assert alpha == pytest.approx(ref_a, abs=1e-12)
            assert beta == pytest.approx(ref_b, abs=1e-12)
            assert d == pytest.approx(ref_d, abs=1e-12)


class TestCoherence:
    def test_cauchy_schwarz_on_model(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        alpha, beta = diagonal_weights(amps)
        for tau_fs in (-400, -25.9, 0, 25.9, 400):
            d = d_parameter(amps, tau_fs * 1e-15)
            assert abs(d) <= np.sqrt(alpha * beta) + 1e-12

    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_cauchy_schwarz_random(self, seed):
        rng = np.random.default_rng(seed)
        amps = post_select(random_jsa(rng), random_splitter(rng))
        alpha, beta = diagonal_weights(amps)
        tau = float(rng.uniform(-500e-15, 500e-15))
        assert abs(d_parameter(amps, tau)) <= np.sqrt(alpha * beta) + 1e-12

    def test_peak_at_compensated_delay(self):
        """|D| is maximal near +25.9 fs, where the walk-off is undone."""
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -400e-15, 400e-15, 801)
        peak = sweep.tau[np.argmax(np.abs(sweep.d))]
        assert peak == pytest.approx(25.9e-15, abs=2e-15)

    def test_delay_phase_covariance(self):
        """Shifting tau multiplies each overlap term by a pure phase, so
        D at the peak delay is real up to grid roundoff."""
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        d = d_parameter(amps, MODEL.intrinsic_delay_comp)
        assert abs(d.imag) < 1e-9 * abs(d)


class TestDelaySweep:
    def test_fast_path_matches_direct_evaluation(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -100e-15, 100e-15, 21)
        direct = np.array([direct_coherence(amps, t) for t in sweep.tau])
        assert np.max(np.abs(sweep.d - direct)) < 1e-12

    def test_degraded_sweep_matches_direct_evaluation(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        model = DegradationModel(amplitude_scale=0.8, time_offset=20e-15)
        tau = np.array([-25.9e-15, 0.0, 25.9e-15])
        sweep = sweep_at(amps, tau, model)
        direct = np.array([0.8 * direct_coherence(amps, t - 20e-15) for t in tau])
        assert np.max(np.abs(sweep.d - direct)) < 1e-12
        assert d_parameter(amps, tau[2], model) == pytest.approx(sweep.d[2], abs=1e-15)
        assert (sweep.alpha, sweep.beta) == diagonal_weights(amps)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 300])
    def test_engine_matches_direct_double_sum(self, n):
        """2n - 1 = 3, 5, 15, 17 difference terms: 2n - 1 is not a multiple
        of the block size for n = 2, 3, 9, so the weight table is padded.
        At n = 300 the diagonal sums run over several bands of rows, the
        last one shorter."""
        if n > 9:
            rows = _BAND_VALUES // n
            assert rows < n and n % rows
        rng = np.random.default_rng(40 + n)
        amps = post_select(random_jsa(rng, n), random_splitter(rng))
        listed = np.array([3e-13, -5e-12, 0.0, 5e-12, -2.5e-14, 1.7e-12])
        got = _coherence(amps, listed)
        direct = np.array([direct_coherence(amps, t) for t in listed])
        assert np.max(np.abs(got - direct)) < 1e-12
        for tau in (-5e-12, 25.9e-15, 5e-12):
            assert d_parameter(amps, tau) == pytest.approx(
                direct_coherence(amps, tau), abs=1e-12
            )
        model = DegradationModel(amplitude_scale=0.7, time_offset=-3e-14)
        tau = np.sort(listed)
        sweep = sweep_at(amps, tau, model)
        direct = np.array([0.7 * direct_coherence(amps, t + 3e-14) for t in tau])
        assert np.max(np.abs(sweep.d - direct)) < 1e-12

    def test_coherence_repeats_with_the_grid_period(self):
        """The discrete sum D(tau) has period 2 pi / d_omega, so only
        |tau| < pi / d_omega is the model's coherence."""
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        tau = np.array([-25.9e-15, 0.0, 25.9e-15])
        period = 2 * np.pi / GRID.d_omega
        repeat = _coherence(amps, tau + period)
        assert np.max(np.abs(repeat - _coherence(amps, tau))) < 1e-9
        assert abs(d_parameter(amps, 10e-12)) < 1e-3

    def test_purity_identity_rows(self):
        """Each row's purity is Tr(rho^2) of its two-term state."""
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -400e-15, 400e-15, 101)
        expected = [
            metrics.purity(density_matrix(sweep.alpha, sweep.beta, d))
            for d in sweep.d
        ]
        assert np.max(np.abs(sweep.purity - expected)) < 1e-12

    def test_phase_is_unwrapped_and_anchored(self):
        """Unwrapped from -400 fs, the phase reaches about -4 pi at the
        peak; the anchor moves it back into (-pi, pi]."""
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -400e-15, 400e-15, 801)
        steps = np.abs(np.diff(sweep.phase))
        assert steps.max() < np.pi  # no 2-pi jumps
        anchor = sweep.phase[np.argmax(np.abs(sweep.d))]
        assert -np.pi < anchor <= np.pi

    def test_rejects_bad_window(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        with pytest.raises(DomainError):
            delay_sweep(amps, 100e-15, -100e-15, 11)
        with pytest.raises(DomainError):
            delay_sweep(amps, -100e-15, 100e-15, 1)


class TestDensityMatrix:
    def test_assembles_expected_elements(self):
        rho = density_matrix(0.52 / 0.95, 0.43 / 0.95, 0.3 + 0.2j)
        mat = rho.elements
        assert mat[0, 0] == 0 and mat[3, 3] == 0
        assert mat[1, 1] == pytest.approx(0.52 / 0.95)
        assert mat[2, 1] == pytest.approx(0.3 + 0.2j)
        assert mat[1, 2] == pytest.approx(0.3 - 0.2j)

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(DomainError):
            density_matrix(0.6, 0.6, 0.1)

    def test_rejects_excess_coherence(self):
        with pytest.raises(NonphysicalCoherenceError):
            density_matrix(0.5, 0.5, 0.6)

    def test_clips_roundoff_overshoot(self):
        d = 0.5 + 4e-10  # inside the 1e-9 tolerance band
        rho = density_matrix(0.5, 0.5, d)
        assert abs(rho.elements[2, 1]) <= 0.5

    def test_invariant_rejects_non_hermitian(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[0, 1] = 0.1j
        with pytest.raises(InvalidStateError):
            PolarizationDensityMatrix(mat)

    def test_invariant_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            PolarizationDensityMatrix(np.eye(4, dtype=complex))

    def test_invariant_rejects_non_finite(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[0, 0] = np.nan
        with pytest.raises(InvalidStateError):
            PolarizationDensityMatrix(mat)

    def test_invariant_rejects_negative_eigenvalue(self):
        mat = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
        with pytest.raises(InvalidStateError):
            PolarizationDensityMatrix(mat)


class TestDegradation:
    def _sweep(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        return delay_sweep(amps, -400e-15, 400e-15, 801)

    def test_identity_model_is_noop(self):
        sweep = self._sweep()
        out, warning = apply_degradation(
            sweep, DegradationModel(amplitude_scale=1.0, time_offset=0.0)
        )
        assert warning is None
        assert np.max(np.abs(out.d - sweep.d)) < 1e-15

    def test_scale_shrinks_coherence(self):
        sweep = self._sweep()
        out, _ = apply_degradation(
            sweep, DegradationModel(amplitude_scale=0.5, time_offset=0.0)
        )
        assert np.allclose(out.d, 0.5 * sweep.d)

    def test_offset_shifts_peak(self):
        sweep = self._sweep()
        out, _ = apply_degradation(
            sweep, DegradationModel(amplitude_scale=1.0, time_offset=50e-15)
        )
        shift = out.tau[np.argmax(np.abs(out.d))] - sweep.tau[
            np.argmax(np.abs(sweep.d))
        ]
        assert shift == pytest.approx(50e-15, abs=2e-15)

    def test_out_of_window_offset_warns(self):
        sweep = self._sweep()
        _, warning = apply_degradation(
            sweep, DegradationModel(amplitude_scale=1.0, time_offset=1e-12)
        )
        assert warning is not None

    def test_rejects_bad_scale(self):
        with pytest.raises(DomainError):
            DegradationModel(amplitude_scale=0.0, time_offset=0.0)
        with pytest.raises(DomainError):
            DegradationModel(amplitude_scale=1.5, time_offset=0.0)

    def test_fit_recovers_known_model(self):
        sweep = self._sweep()
        truth = DegradationModel(amplitude_scale=0.8, time_offset=20e-15)
        degraded, _ = apply_degradation(sweep, truth)
        picks = np.searchsorted(sweep.tau, [-30e-15, 0.0, 45e-15])
        observations = [(sweep.tau[i], degraded.d[i]) for i in picks]
        fit = fit_degradation(sweep, observations)
        assert fit.amplitude_scale == pytest.approx(0.8, abs=0.01)
        assert fit.time_offset == pytest.approx(20e-15, abs=0.5e-15)

    def test_fit_rejects_too_few_points(self):
        sweep = self._sweep()
        with pytest.raises(DomainError):
            fit_degradation(sweep, [(0.0, 0.1 + 0j)])

    def test_fit_rejects_all_zero_observations(self):
        sweep = self._sweep()
        with pytest.raises(UnidentifiableFitError):
            fit_degradation(sweep, [(0.0, 0.0j), (10e-15, 0.0j)])


def fit_degradation_loop(sweep, observations):
    """Offset-by-offset scan: the reference for the vectorized fit, on the
    same offsets (the module's resolution over half the sweep window),
    skipping each offset that shifts an observation out of the window."""
    obs = list(observations)
    obs_tau = np.array([t for t, _ in obs], dtype=float)
    obs_d = np.array([d for _, d in obs], dtype=complex)
    half_span = (sweep.tau[-1] - sweep.tau[0]) / 2.0
    offsets = np.arange(-half_span, half_span, jointstate._OFFSET_RESOLUTION)
    best = None
    inside = False
    for t0 in offsets:
        shifted = obs_tau - t0
        if shifted.min() < sweep.tau[0] or shifted.max() > sweep.tau[-1]:
            continue
        inside = True
        theory = _interp_complex(shifted, sweep.tau, sweep.d)
        denom = float(np.sum(np.abs(theory) ** 2))
        if denom == 0.0:
            continue
        scale = float(np.real(np.sum(np.conj(theory) * obs_d)) / denom)
        scale = min(1.0, scale)
        if scale <= 0.0:
            continue
        residual = float(np.sum(np.abs(scale * theory - obs_d) ** 2))
        if best is None or residual < best[0]:
            best = (residual, scale, float(t0))
    if not inside:
        raise DomainError("no offset shifts every observation into the window")
    if best is None:
        raise UnidentifiableFitError("no admissible (scale, offset) found")
    return DegradationModel(amplitude_scale=best[1], time_offset=best[2])


def fit_outcome(fit, sweep, observations):
    """The fitted model, or the type of the error the fit raises."""
    try:
        return fit(sweep, observations)
    except (DomainError, UnidentifiableFitError) as exc:
        return type(exc)


class TestFitDegradationOracle:
    def _sweep(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        return delay_sweep(amps, -400e-15, 400e-15, 801)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scalar_scan_exactly(self, seed, monkeypatch):
        sweep = self._sweep()
        rng = np.random.default_rng(seed)
        count = (2, 3, 9, 20)[seed]
        tau = rng.uniform(-300e-15, 300e-15, count)
        d = 0.3 * (rng.normal(size=count) + 1j * rng.normal(size=count))
        obs = list(zip(tau, d))
        assert fit_degradation(sweep, obs) == fit_degradation_loop(sweep, obs)
        # a coarser scan over the offsets of a -100 to +150 fs sweep, which
        # the observations fit into only when drawn 0.4 times as wide
        window = slice(300, 551)
        part = DelaySweep(sweep.tau[window], sweep.d[window], sweep.alpha, sweep.beta)
        monkeypatch.setattr(jointstate, "_OFFSET_RESOLUTION", 1e-15)
        for observed in (obs, [(0.4 * t, d) for t, d in obs]):
            assert fit_outcome(fit_degradation, part, observed) == fit_outcome(
                fit_degradation_loop, part, observed
            )

    def test_inadmissible_offsets_and_ties(self):
        """Coherence zero on half the window and a flat plateau elsewhere:
        offsets that shift the observations onto the zeros have no scale,
        negative overlaps are skipped, and equal residuals go to the first
        offset."""
        tau = np.linspace(-10e-15, 10e-15, 21)
        d = np.where(tau < 0, 0.0, 0.4 + 0.1j)
        sweep = DelaySweep(tau, d, 0.5, 0.5)
        for obs in (
            [(1e-15, 0.2 + 0.05j), (2e-15, 0.2 + 0.05j)],
            [(1e-15, -0.2 - 0.05j), (6e-15, 0.3 + 0.0j)],
            [(-3e-15, 0.2 + 0.05j), (4e-15, 0.1 + 0.025j)],
        ):
            fit = fit_degradation(sweep, obs)
            assert fit == fit_degradation_loop(sweep, obs)
        obs = [(1e-15, 0.2 + 0.05j), (2e-15, 0.2 + 0.05j)]
        # the first tie is the first offset that keeps the observation at
        # 2 fs in the window: the scan's -8 fs point, -8.000000000000002e-15,
        # shifts it 2 ulp past the window's end
        offsets = np.arange(-10e-15, 10e-15, jointstate._OFFSET_RESOLUTION)
        assert 2e-15 - offsets[4] > tau[-1] >= 2e-15 - offsets[5]
        assert fit_degradation(sweep, obs).time_offset == offsets[5]
        # the window is closed: observations as wide as it fit at the one
        # offset that shifts them onto its two ends exactly
        t0 = offsets[20]  # about 0
        ends = [(tau[0] + t0, 0.1 + 0.0j), (tau[-1] + t0, 0.2 + 0.05j)]
        assert [t - t0 for t, _ in ends] == [tau[0], tau[-1]]
        assert fit_degradation(sweep, ends) == fit_degradation_loop(sweep, ends)
        assert fit_degradation(sweep, ends).time_offset == t0
        negative = [(1e-15, -0.2 - 0.05j), (2e-15, -0.2 - 0.05j)]
        with pytest.raises(UnidentifiableFitError):
            fit_degradation(sweep, negative)
        with pytest.raises(UnidentifiableFitError):
            fit_degradation_loop(sweep, negative)

    def test_rejects_non_finite_observations(self):
        with pytest.raises(DomainError):
            fit_degradation(self._sweep(), [(0.0, 0.1 + 0j), (1e-15, np.nan + 0j)])

    @pytest.mark.parametrize(
        "taus_fs", [(0.0, 25.0), (25.0, 26.0)], ids=["too-wide", "too-far"]
    )
    def test_observations_no_offset_fits_into_the_window(self, taus_fs):
        """Observations wider than the -10 to 10 fs window, or farther from
        it than the +-10 fs offset scan reaches, are rejected, not fitted to
        the window's boundary values."""
        tau = np.linspace(-10e-15, 10e-15, 21)
        sweep = DelaySweep(tau, np.full(21, 0.4 + 0.1j), 0.5, 0.5)
        obs = [(t * 1e-15, 0.2 + 0.05j) for t in taus_fs]
        message = (
            "observations at %g to %g fs: no time offset within +-10 fs shifts"
            " them all into the sweep window -10 to 10 fs" % taus_fs
        )
        with pytest.raises(DomainError) as info:
            fit_degradation(sweep, obs)
        assert str(info.value) == message
        with pytest.raises(DomainError):
            fit_degradation_loop(sweep, obs)


class TestEdgeSplit:
    TEMPLATE = SplitterResponse(step_width=6e-9)

    def test_root_weights_match_post_selection(self):
        jsa = build_jsa(MODEL, GRID)
        power, cell = _power(jsa.amplitude), jsa.grid.cell
        for split in np.random.default_rng(8).uniform(-10e-9, 10e-9, 8):
            splitter = split_edges(self.TEMPLATE, split)
            curves = sample_on_grid(splitter, jsa.grid)
            alpha, beta, norm = _cross_path_weights(power, curves, cell)
            amps = post_select(jsa, splitter)
            assert (alpha, beta) == pytest.approx(diagonal_weights(amps), abs=1e-14)
            # independent Riemann sums of the post-selected amplitudes
            g, h = cross_amplitudes(amps)
            w_g = np.sum(np.abs(g) ** 2) * cell
            w_h = np.sum(np.abs(h) ** 2) * cell
            assert norm == pytest.approx(w_g + w_h, rel=1e-14)
            assert alpha == pytest.approx(w_g / (w_g + w_h), abs=1e-14)
            assert beta == pytest.approx(w_h / (w_g + w_h), abs=1e-14)

    def test_fit_reaches_target(self):
        jsa = build_jsa(MODEL, GRID)
        splitter = fit_edge_split(jsa, self.TEMPLATE, 0.55)
        alpha, _ = diagonal_weights(post_select(jsa, splitter))
        assert alpha == pytest.approx(0.55, abs=1e-6)

    def test_no_split_is_evaluated_twice(self, monkeypatch):
        """The bracket ends are evaluated once, by the root search."""
        seen = []

        def spy(split, *args):
            seen.append(split)
            return excess(split, *args)

        excess = calibrate._alpha_excess
        monkeypatch.setattr(calibrate, "_alpha_excess", spy)
        fit_edge_split(build_jsa(MODEL, GRID), self.TEMPLATE, 0.55)
        assert seen[:2] == list(calibrate._SPLIT_BRACKET)
        assert len(set(seen)) == len(seen)

    def test_unreachable_target_rejected(self):
        with pytest.raises(UnidentifiableFitError):
            fit_edge_split(build_jsa(MODEL, GRID), self.TEMPLATE, 0.99)

    def test_fit_releases_the_jsa_without_cyclic_collection(self):
        jsa = build_jsa(MODEL, GRID)
        ref = weakref.ref(jsa)
        gc.disable()
        try:
            fit_edge_split(jsa, self.TEMPLATE, 0.55)
            del jsa
            assert ref() is None
        finally:
            gc.enable()

    def test_degenerate_template_rejected(self):
        # both edges far outside the grid for every split in the bracket
        template = SplitterResponse(
            edge_wavelength_h=1400e-9, edge_wavelength_v=1400e-9, step_width=1e-10
        )
        with pytest.raises(DegeneratePostSelectionError):
            fit_edge_split(build_jsa(MODEL, GRID), template, 0.5)


class TestSweepRecordInvariants:
    def test_rejects_non_monotone_delays(self):
        tau = np.array([0.0, 1e-15, 0.5e-15])
        with pytest.raises(DomainError):
            DelaySweep(tau, np.zeros(3, dtype=complex), 0.5, 0.5)


class TestFiles:
    def test_sweep_file_layout(self, tmp_path):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -50e-15, 50e-15, 5)
        path = tmp_path / "sweep.txt"
        write_sweep(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tau_fs")
        rows = np.loadtxt(lines[1:])
        assert rows.shape == (5, 8)
        assert rows[0, 0] == pytest.approx(-50.0)  # femtoseconds outside
        assert rows[:, 3] == pytest.approx(np.abs(sweep.d))

    def test_density_matrix_round_trip(self, tmp_path):
        rho = density_matrix(0.55, 0.45, 0.2 + 0.3j)
        path = tmp_path / "rho.txt"
        write_density_matrix(path, rho)
        back = read_density_matrix(path)
        assert np.array_equal(back.elements, rho.elements)
