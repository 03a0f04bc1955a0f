"""Tests for post-selection, the coherence parameter, and delay sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim.dichroic import SplitterResponse
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
from polentsim.spectral import FrequencyGrid, JsaGrid, PdcModel, build_jsa

MODEL = PdcModel()
GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, n=256)
SPLIT = SplitterResponse(
    edge_wavelength_h=1533.55e-9, edge_wavelength_v=1536.85e-9
)


def random_jsa(rng, n=8):
    grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=n)
    amp = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return JsaGrid.normalized(grid, amp)


def random_splitter(rng):
    return SplitterResponse(
        edge_wavelength_h=(1525 + 20 * rng.random()) * 1e-9,
        edge_wavelength_v=(1525 + 20 * rng.random()) * 1e-9,
        step_width=(2 + 10 * rng.random()) * 1e-9,
        transmit_long=bool(rng.integers(2)),
    )


def direct_coherence(amps, tau):
    """O(n^2) double sum of h(omega_i, omega_s) conj(g) e^{i tau (omega_s - omega_i)}."""
    ws = amps.grid.omega_s_axis[:, None]
    wi = amps.grid.omega_i_axis[None, :]
    terms = amps.h.T * np.conj(amps.g) * np.exp(1j * tau * (ws - wi))
    return complex(np.sum(terms) * amps.grid.cell / amps.norm_constant)


def loop_reference(jsa, splitter, tau):
    """Scalar-loop evaluation of (alpha, beta, D) from first principles.

    Re-derives the cross-path amplitudes point by point and performs the
    normalization and coherence sums with explicit Python loops, with no
    shared code path with the vectorized pipeline.
    """
    ws = jsa.grid.omega_s_axis
    wi = jsa.grid.omega_i_axis
    cell = jsa.grid.cell
    n_s, n_i = jsa.grid.n_s, jsa.grid.n_i
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


class TestUnequalAxes:
    def test_coherence_rejects_unequal_axes(self):
        axis = FrequencyGrid.centered(1535.2e-9, 40e-9, n=8).omega_s_axis
        grid = FrequencyGrid(axis, axis + (axis[1] - axis[0]))
        rng = np.random.default_rng(5)
        jsa = JsaGrid.normalized(grid, rng.normal(size=(8, 8)) + 0j)
        amps = post_select(jsa, SplitterResponse())
        with pytest.raises(DomainError):
            d_parameter(amps, 0.0)
        with pytest.raises(DomainError):
            delay_sweep(amps, -100e-15, 100e-15, 5)


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
        alpha, beta = diagonal_weights(amps)
        assert np.all(sweep.alpha == alpha) and np.all(sweep.beta == beta)

    def test_purity_identity_rows(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -400e-15, 400e-15, 101)
        expected = sweep.alpha**2 + sweep.beta**2 + 2 * np.abs(sweep.d) ** 2
        assert np.array_equal(sweep.purity, expected)

    def test_phase_is_unwrapped_and_anchored(self):
        amps = post_select(build_jsa(MODEL, GRID), SPLIT)
        sweep = delay_sweep(amps, -100e-15, 100e-15, 401)
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


class TestSweepRecordInvariants:
    def test_rejects_non_monotone_delays(self):
        tau = np.array([0.0, 1e-15, 0.5e-15])
        d = np.zeros(3, dtype=complex)
        a = np.full(3, 0.5)
        with pytest.raises(DomainError):
            DelaySweep(tau=tau, d=d, alpha=a, beta=a, purity=2 * a**2,
                       phase=np.zeros(3))

    def test_rejects_broken_purity_identity(self):
        tau = np.array([0.0, 1e-15])
        d = np.zeros(2, dtype=complex)
        a = np.full(2, 0.5)
        with pytest.raises(DomainError):
            DelaySweep(tau=tau, d=d, alpha=a, beta=a,
                       purity=np.full(2, 0.9), phase=np.zeros(2))


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
