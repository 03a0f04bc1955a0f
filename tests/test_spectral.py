"""Tests for the joint-spectral-amplitude construction."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim import jointstate, spectral
from polentsim.dichroic import SplitterResponse
from polentsim.errors import (
    DomainError,
    EmptySupportError,
    FormatError,
    ResolutionError,
)
from polentsim.spectral import (
    C,
    FrequencyGrid,
    JsaGrid,
    PdcModel,
    antidiagonal_marginal,
    apply_bandpass,
    build_jsa,
    marginal_fwhm,
    omega_to_wavelength,
    phase_matching,
    phase_mismatch,
    pump_envelope,
    read_jsa,
    wavelength_to_omega,
    write_jsa,
)

MODEL = PdcModel()
GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, n=256)


@given(st.floats(min_value=100e-9, max_value=10e-6))
def test_wavelength_omega_round_trip(lam):
    assert omega_to_wavelength(wavelength_to_omega(lam)) == pytest.approx(
        lam, rel=1e-14
    )


class TestFrequencyGrid:
    def test_rejects_short_axis(self):
        with pytest.raises(DomainError):
            FrequencyGrid(np.array([1.0e15]), np.array([1.0e15, 1.1e15]))

    def test_rejects_nonuniform_axis(self):
        axis = np.array([1.0e15, 1.1e15, 1.25e15])
        with pytest.raises(DomainError):
            FrequencyGrid(axis, axis)

    def test_rejects_decreasing_axis(self):
        axis = np.array([1.2e15, 1.1e15, 1.0e15])
        with pytest.raises(DomainError):
            FrequencyGrid(axis, axis)

    def test_centered_is_cell_centered(self):
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=64)
        w_lo = wavelength_to_omega(1535.2e-9 + 20e-9)
        w_hi = wavelength_to_omega(1535.2e-9 - 20e-9)
        step = (w_hi - w_lo) / 64
        assert grid.omega_s_axis[0] == pytest.approx(w_lo + step / 2, rel=1e-12)
        assert grid.omega_s_axis[-1] == pytest.approx(w_hi - step / 2, rel=1e-12)
        assert grid.axes_match()

    def test_axes_match_false_for_different_axes(self):
        grid = FrequencyGrid(
            GRID.omega_s_axis, GRID.omega_i_axis + GRID.d_omega_i
        )
        assert not grid.axes_match()


class TestPumpEnvelope:
    def test_peak_is_one(self):
        assert pump_envelope(MODEL, MODEL.omega_pump_center) == pytest.approx(
            1.0 + 0j
        )

    def test_half_maximum_at_half_fwhm(self):
        w = MODEL.omega_pump_center + MODEL.pump_bandwidth_omega / 2
        assert abs(pump_envelope(MODEL, w)) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_even_symmetry(self):
        shift = MODEL.pump_bandwidth_omega / 2
        lo = pump_envelope(MODEL, MODEL.omega_pump_center - shift)
        hi = pump_envelope(MODEL, MODEL.omega_pump_center + shift)
        assert abs(lo) == pytest.approx(abs(hi), rel=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            pump_envelope(MODEL, -1.0)


def _mismatch_reference(model, omega_s, omega_i):
    """Exact rational evaluation of the first-order wave-vector mismatch
    on the same float inputs, rounded once at the end."""
    w0 = Fraction(model.omega_degeneracy)
    wp = Fraction(model.omega_pump_center)
    ws, wi = Fraction(float(omega_s)), Fraction(float(omega_i))
    k_p = Fraction(model.group_index_pump) * (ws + wi - wp)
    k_s = Fraction(model.group_index_signal) * (ws - w0)
    k_i = Fraction(model.group_index_idler) * (wi - w0)
    return float((k_p - k_s - k_i) / Fraction(C))


class TestPhaseMatching:
    def test_unity_at_degeneracy(self):
        w0 = MODEL.omega_degeneracy
        assert phase_matching(MODEL, w0, w0) == pytest.approx(1.0 + 0j)

    def test_zero_at_first_sinc_null(self):
        # walk along the anti-diagonal to the first zero of the sinc
        delta_n = MODEL.group_index_idler - MODEL.group_index_signal
        x = 2 * np.pi * C / (delta_n * MODEL.crystal_length)
        w0 = MODEL.omega_degeneracy
        assert abs(phase_matching(MODEL, w0 - x, w0 + x)) < 1e-12

    @settings(deadline=None)
    @given(
        st.floats(min_value=-3e13, max_value=3e13),
        st.floats(min_value=-3e13, max_value=3e13),
    )
    def test_matches_scalar_reference(self, ds, di):
        w0 = MODEL.omega_degeneracy
        got = phase_mismatch(MODEL, w0 + ds, w0 + di)
        want = _mismatch_reference(MODEL, w0 + ds, w0 + di)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            phase_matching(MODEL, -1.0, MODEL.omega_degeneracy)


class TestBuildJsa:
    def test_normalized(self):
        jsa = build_jsa(MODEL, GRID)
        assert jsa.norm() == pytest.approx(1.0, abs=1e-9)

    def test_peak_on_antidiagonal(self):
        jsa = build_jsa(MODEL, GRID)
        j, k = np.unravel_index(
            np.argmax(np.abs(jsa.amplitude)), jsa.amplitude.shape
        )
        w_sum = GRID.omega_s_axis[j] + GRID.omega_i_axis[k]
        assert abs(w_sum - MODEL.omega_pump_center) < 2 * GRID.d_omega_s

    def test_too_coarse_grid_rejected(self):
        coarse = FrequencyGrid.centered(1535.2e-9, 40e-9, n=8)
        with pytest.raises(ResolutionError):
            build_jsa(MODEL, coarse)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-18,
        reason="long double is not an extended-precision type here",
    )
    @pytest.mark.parametrize(
        "model, grid",
        [
            (MODEL, GRID),
            (
                PdcModel(pump_bandwidth_fwhm=1.1e-9, crystal_length=2.3e-3),
                FrequencyGrid(GRID.omega_s_axis[:200], GRID.omega_i_axis[40:]),
            ),
        ],
        ids=["default", "rectangular"],
    )
    def test_matches_extended_precision_evaluation(self, model, grid):
        """The factorized grid evaluation agrees with a long-double
        evaluation of pump x sinc(dk L/2) exp(i dk L/2) on the same float
        inputs to 1e-13 of the peak."""
        ld = np.longdouble
        ws = grid.omega_s_axis.astype(ld)[:, None]
        wi = grid.omega_i_axis.astype(ld)[None, :]
        w0, wp = ld(model.omega_degeneracy), ld(model.omega_pump_center)
        dk = (
            ld(model.group_index_pump) * (ws + wi - wp)
            - ld(model.group_index_signal) * (ws - w0)
            - ld(model.group_index_idler) * (wi - w0)
        ) / ld(C)
        x = dk * ld(model.crystal_length) / 2
        safe = np.where(x == 0, ld(1), x)
        sinc = np.where(x == 0, ld(1), np.sin(safe) / safe)
        u = (ws + wi - wp) / ld(model.pump_bandwidth_omega)
        envelope = np.exp(-2 * np.log(ld(2)) * u * u) * sinc
        envelope /= np.sqrt(np.sum(envelope**2) * ld(grid.cell))
        ref_re, ref_im = envelope * np.cos(x), envelope * np.sin(x)

        jsa = build_jsa(model, grid)
        err = max(
            np.max(np.abs(jsa.amplitude.real.astype(ld) - ref_re)),
            np.max(np.abs(jsa.amplitude.imag.astype(ld) - ref_im)),
        )
        assert err <= 1e-13 * np.max(np.abs(envelope))

    def test_discarded_fraction_matches_extrapolated_tail(self):
        """With a short sinc^2 ridge the norm missing from a window halves
        per doubling of the window (a 1/X tail), so 2 N_80 - N_40 estimates
        the whole-plane norm; the closed form agrees with it to 1e-4."""
        model = PdcModel(
            group_index_signal=3.0, group_index_idler=3.6, crystal_length=5e-3
        )

        def riemann_norm(width, n):
            grid = FrequencyGrid.centered(1535.2e-9, width, n=n)
            ws = grid.omega_s_axis[:, None]
            wi = grid.omega_i_axis[None, :]
            amp = pump_envelope(model, ws + wi) * phase_matching(model, ws, wi)
            return np.sum(np.abs(amp) ** 2) * grid.cell

        n_40, n_80 = riemann_norm(40e-9, 512), riemann_norm(80e-9, 1024)
        jsa = build_jsa(model, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        assert jsa.discarded_fraction == pytest.approx(
            1 - n_40 / (2 * n_80 - n_40), abs=1e-4
        )

    def test_equal_group_indices_discard_everything(self):
        """n_gs = n_gi: the sinc^2 ridge never ends, so the limit is 1."""
        jsa = build_jsa(PdcModel(intrinsic_delay_comp=0.0), GRID)
        assert jsa.discarded_fraction == 1.0

    def test_grid_refinement_convergence(self):
        """alpha, beta, |D(0)| change < 1e-4 relative from n to 2n, n >= 256."""
        splitter = SplitterResponse(
            edge_wavelength_h=1533.5e-9, edge_wavelength_v=1536.9e-9
        )

        def downstream(n):
            grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=n)
            amps = jointstate.post_select(build_jsa(MODEL, grid), splitter)
            a, b = jointstate.diagonal_weights(amps)
            return np.array([a, b, abs(jointstate.d_parameter(amps, 0.0))])

        coarse, fine = downstream(256), downstream(512)
        assert np.max(np.abs(fine - coarse) / np.abs(fine)) < 1e-4

    def test_pump_marginal_fwhm(self):
        """Anti-diagonal marginal FWHM equals the pump bandwidth within 2%.

        The window must be wide relative to the broadband phase-matching
        along the difference-frequency direction, or the truncated support
        itself narrows the marginal.
        """
        # ~64 grid points across the pump bandwidth along the anti-diagonal
        grid = FrequencyGrid.centered(1535.2e-9, 60e-9, n=2400)
        jsa = build_jsa(MODEL, grid)
        sums, density = antidiagonal_marginal(jsa)
        fwhm = marginal_fwhm(sums, density)
        assert fwhm == pytest.approx(MODEL.pump_bandwidth_omega, rel=0.02)


class TestAntidiagonalMarginal:
    def test_matches_double_loop_on_rectangular_grid(self):
        axis = GRID.omega_s_axis
        grid = FrequencyGrid(axis[:8], axis[20:32])  # 8 x 12, common step
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(8, 12)) + 1j * rng.normal(size=(8, 12))
        jsa = JsaGrid.normalized(grid, amp)
        sums, density = antidiagonal_marginal(jsa)
        expected = np.zeros(8 + 12 - 1)
        for j in range(8):
            for k in range(12):
                expected[j + k] += abs(jsa.amplitude[j, k]) ** 2
        expected *= grid.cell / grid.d_omega_s
        assert np.allclose(density, expected, rtol=1e-14, atol=0)
        step = grid.d_omega_s
        assert np.allclose(
            sums, axis[0] + axis[20] + step * np.arange(19), rtol=1e-15, atol=0
        )


class TestApplyBandpass:
    def test_full_window_is_identity(self):
        jsa = build_jsa(MODEL, GRID)
        out = apply_bandpass(jsa, 1535.2e-9, 200e-9)
        assert np.max(np.abs(out.amplitude - jsa.amplitude)) < 1e-12
        assert out.discarded_fraction < 1e-12

    def test_disjoint_window_rejected(self):
        jsa = build_jsa(MODEL, GRID)
        with pytest.raises(EmptySupportError):
            apply_bandpass(jsa, 800e-9, 10e-9)

    def test_default_window_discards_little(self):
        jsa = build_jsa(MODEL, GRID)
        out = apply_bandpass(jsa, 1535.2e-9, 40e-9)
        assert out.discarded_fraction < 0.05
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_narrow_window_reports_out_of_band_norm(self):
        jsa = build_jsa(MODEL, GRID)
        out = apply_bandpass(jsa, 1535.2e-9, 10e-9)
        kept = np.sum(
            np.abs(np.where(out.amplitude != 0, jsa.amplitude, 0)) ** 2
        ) * GRID.cell
        assert out.discarded_fraction == pytest.approx(1 - kept, abs=1e-9)

    def test_rejects_nonpositive_width(self):
        jsa = build_jsa(MODEL, GRID)
        with pytest.raises(DomainError):
            apply_bandpass(jsa, 1535.2e-9, 0.0)


class TestJsaGridInvariant:
    def test_unnormalized_rejected(self):
        amp = np.ones((GRID.n_s, GRID.n_i), dtype=complex)
        with pytest.raises(DomainError):
            JsaGrid(GRID, amp)

    def test_normalized_factory(self):
        amp = np.random.default_rng(0).normal(size=(GRID.n_s, GRID.n_i))
        jsa = JsaGrid.normalized(GRID, amp)
        assert jsa.norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(EmptySupportError):
            JsaGrid.normalized(GRID, np.zeros((GRID.n_s, GRID.n_i)))


class TestJsaFile:
    def test_round_trip_bit_exact(self, tmp_path):
        jsa = build_jsa(MODEL, GRID)
        path = tmp_path / "jsa.txt"
        write_jsa(path, jsa)
        back = read_jsa(path)
        assert np.array_equal(back.amplitude, jsa.amplitude)
        assert np.allclose(
            back.grid.omega_s_axis, jsa.grid.omega_s_axis, rtol=1e-15
        )

    @pytest.mark.parametrize("block_values", [1, 28, 1 << 16])
    def test_writer_matches_per_element_reference(
        self, tmp_path, monkeypatch, block_values
    ):
        """Block formatting writes the bytes of one write per value, for
        blocks of one row, of two rows with a short last block, and of the
        whole grid; -0.0 and subnormals keep their exact text."""
        grid = FrequencyGrid(GRID.omega_s_axis[:7], GRID.omega_i_axis[:7])
        rng = np.random.default_rng(3)
        amp = 1e-20 * (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        amp[0, 0] = 1.0 / np.sqrt(grid.cell)
        amp[1, 2] = complex(-0.0, 5e-324)
        amp[3, 4] = complex(-2.5e-310, -0.0)
        amp[6, 0] = complex(1e-20 / 3.0, -1e-300)
        jsa = JsaGrid(grid, amp)
        monkeypatch.setattr(spectral, "_WRITE_BLOCK_VALUES", block_values)
        path, ref = tmp_path / "jsa.txt", tmp_path / "ref.txt"
        write_jsa(path, jsa)
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write(
                "# %d %d %.17g %.17g %.17g %.17g\n"
                % (7, 7, grid.omega_s_axis[0], grid.d_omega_s,
                   grid.omega_i_axis[0], grid.d_omega_i)
            )
            for row in jsa.amplitude:
                for val in row:
                    fh.write("%.17g %.17g\n" % (val.real, val.imag))
        assert path.read_bytes() == ref.read_bytes()
        assert b"\n-0 4.9406564584124654e-324\n" in path.read_bytes()
        assert np.array_equal(read_jsa(path).amplitude.view(float), amp.view(float))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        with pytest.raises(FormatError):
            read_jsa(path)

    @pytest.mark.parametrize(
        "idler_axis",
        [
            GRID.omega_s_axis[:-1],  # fewer points
            GRID.omega_s_axis + GRID.d_omega_s,  # shifted start
            GRID.omega_s_axis[0] + 0.5 * GRID.d_omega_s * np.arange(GRID.n_s),
        ],
        ids=["count", "start", "step"],
    )
    def test_unequal_axes_rejected(self, tmp_path, idler_axis):
        grid = FrequencyGrid(GRID.omega_s_axis, idler_axis)
        amp = np.random.default_rng(1).normal(size=(grid.n_s, grid.n_i))
        path = tmp_path / "jsa.txt"
        write_jsa(path, JsaGrid.normalized(grid, amp))
        with pytest.raises(FormatError):
            read_jsa(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# 2 2 1e15 1e12 1e15 1e12\n0 0\n0 1\n")
        with pytest.raises(FormatError):
            read_jsa(path)
