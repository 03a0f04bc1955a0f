"""Tests for the joint-spectral-amplitude construction."""

import hashlib
import os
import tempfile
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim import jointstate, spectral
from polentsim.calibrate import fit_edge_split
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
    read_jsa,
    wavelength_to_omega,
    write_jsa,
)
from spectral_oracles import (
    normalized_jsa,
    phase_matching,
    phase_mismatch,
    pump_envelope,
)

MODEL = PdcModel()
GRID = FrequencyGrid.centered(1535.2e-9, 40e-9, n=256)
# a short sinc^2 ridge: |dk L/2| reaches about 80 (25 pi) on a 40 nm window
SHORT_RIDGE = PdcModel(
    group_index_signal=3.0, group_index_idler=3.6, crystal_length=5e-3
)


@given(st.floats(min_value=100e-9, max_value=10e-6))
def test_wavelength_omega_round_trip(lam):
    assert omega_to_wavelength(wavelength_to_omega(lam)) == pytest.approx(
        lam, rel=1e-14
    )


class TestFrequencyGrid:
    def test_rejects_short_axis(self):
        with pytest.raises(DomainError, match="^grid needs at least 2 points, got 1$"):
            FrequencyGrid(1.0e15, 1.0e12, 1)

    @pytest.mark.parametrize("n", [2.0, "2", None])
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(DomainError, match="^grid point count must be an integer"):
            FrequencyGrid(1.0e15, 1.0e12, n)

    @pytest.mark.parametrize(
        "start, step", [(np.nan, 1.0e12), (np.inf, 1.0e12), (1.0e15, np.inf),
                        (1.0e15, np.nan)]
    )
    def test_rejects_non_finite_start_or_step(self, start, step):
        with pytest.raises(
            DomainError, match=f"^grid start and step must be finite, got {start}, {step}$"
        ):
            FrequencyGrid(start, step, 3)

    def test_rejects_decreasing_axis(self):
        with pytest.raises(DomainError, match="^grid step must be positive, got -1.0$"):
            FrequencyGrid(1.2e15, -1.0, 3)

    def test_rejects_zero_step(self):
        with pytest.raises(DomainError, match="^grid step must be positive, got 0.0$"):
            FrequencyGrid(1.2e15, 0.0, 3)

    @pytest.mark.parametrize("n", [3, 10**400], ids=["last-point", "count"])
    def test_rejects_overflowing_last_point(self, n):
        """Also for a count beyond the float range, where n - 1 itself
        cannot be converted."""
        with pytest.raises(DomainError, match=r"^grid's last point 1e\+308 \+ \d+ "
                           r"\* 1e\+308 is not finite$"):
            FrequencyGrid(1e308, 1e308, n)

    def test_fields_are_normalized(self):
        grid = FrequencyGrid(np.float64(1.0e15), np.float64(1.0e12), np.int64(4))
        assert [type(v) for v in (grid.start, grid.d_omega, grid.n)] == [float, float, int]
        assert grid == FrequencyGrid(1.0e15, 1.0e12, 4)
        assert np.array_equal(grid.axis, 1.0e15 + np.arange(4) * 1.0e12)
        assert grid.cell == 1.0e24
        assert not grid.axis.flags.writeable

    def test_centered_needs_a_point_count(self):
        with pytest.raises(TypeError):
            FrequencyGrid.centered(1535.2e-9, 40e-9)
        with pytest.raises(DomainError, match="^grid needs at least 2 points, got 0$"):
            FrequencyGrid.centered(1535.2e-9, 40e-9, 0)

    def test_centered_is_cell_centered(self):
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=64)
        w_lo = wavelength_to_omega(1535.2e-9 + 20e-9)
        w_hi = wavelength_to_omega(1535.2e-9 - 20e-9)
        step = (w_hi - w_lo) / 64
        assert grid.axis[0] == pytest.approx(w_lo + step / 2, rel=1e-12)
        assert grid.axis[-1] == pytest.approx(w_hi - step / 2, rel=1e-12)
        assert grid.omega_s_axis is grid.axis and grid.omega_i_axis is grid.axis
        # the step is the window's width over n, not a difference of points
        assert grid.d_omega == step and grid.start == w_lo + 0.5 * step


_POSITIVE_FIELDS = (
    "pump_center_wavelength", "pump_bandwidth_fwhm", "degeneracy_wavelength", "crystal_length",
)
_GROUP_INDEX_FIELDS = ("group_index_signal", "group_index_idler", "group_index_pump")


@pytest.mark.parametrize(
    "field, value, message",
    [(f, v, f"{f} must be positive and finite")
     for f in _POSITIVE_FIELDS for v in (np.nan, np.inf, 0.0, -1e-9)]
    + [("intrinsic_delay_comp", v, "intrinsic_delay_comp must be finite")
       for v in (np.nan, np.inf)]
    + [(f, v, f"{f} must be finite and >= 1") for f in _GROUP_INDEX_FIELDS for v in (np.nan, 0.5)],
)
def test_model_rejects_each_bad_field(field, value, message):
    """Each field of PdcModel out of its range raises DomainError with the
    field's own message."""
    with pytest.raises(DomainError, match=f"^{message}$"):
        PdcModel(**{field: value})


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
        w_sum = GRID.axis[j] + GRID.axis[k]
        assert abs(w_sum - MODEL.omega_pump_center) < 2 * GRID.d_omega

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
                FrequencyGrid(GRID.axis[40], GRID.d_omega, GRID.n - 40),  # off-centre
            ),
            # 512 rows: four bands of rows
            (SHORT_RIDGE, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512)),
        ],
        ids=["default", "rectangular", "short-ridge"],
    )
    def test_matches_extended_precision_evaluation(self, model, grid):
        """The factorized band evaluation (angle-sum sine numerator, direct
        sin(x)/x near the ridge) agrees with a long-double evaluation of
        pump x sinc(dk L/2) exp(i dk L/2) on the same float inputs to 1e-13
        of the peak."""
        ld = np.longdouble
        ws = grid.axis.astype(ld)[:, None]
        wi = grid.axis.astype(ld)[None, :]
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

    def test_band_evaluation_allocates_one_output_grid(self, set_lanes):
        """At 1024 points the build holds the output grid plus band-sized
        temporaries, on one lane or two: no second grid-sized array is
        made."""
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=1024)
        for lanes in (1, 2):
            set_lanes(lanes)
            tracemalloc.start()
            try:
                jsa = build_jsa(MODEL, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= jsa.amplitude.nbytes + 4e6, f"{lanes} lanes"

    def test_discarded_fraction_matches_extrapolated_tail(self):
        """With a short sinc^2 ridge the norm missing from a window halves
        per doubling of the window (a 1/X tail), so 2 N_80 - N_40 estimates
        the whole-plane norm; the closed form agrees with it to 1e-4."""
        model = SHORT_RIDGE

        def riemann_norm(width, n):
            grid = FrequencyGrid.centered(1535.2e-9, width, n=n)
            ws = grid.axis[:, None]
            wi = grid.axis[None, :]
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
        axis = GRID.axis
        grid = FrequencyGrid(axis[20], GRID.d_omega, 12)  # 12 x 12, off-centre
        rng = np.random.default_rng(3)
        amp = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        jsa = normalized_jsa(grid, amp)
        sums, density = antidiagonal_marginal(jsa)
        expected = np.zeros(12 + 12 - 1)
        for j in range(12):
            for k in range(12):
                expected[j + k] += abs(jsa.amplitude[j, k]) ** 2
        expected *= grid.cell / grid.d_omega
        assert np.allclose(density, expected, rtol=1e-14, atol=0)
        step = grid.d_omega
        assert np.allclose(
            sums, 2 * axis[20] + step * np.arange(23), rtol=1e-15, atol=0
        )

    def test_matches_bincount_over_several_bands(self):
        """300 x 300 cells: the band sum runs over two bands of rows, the
        second one shorter, and agrees with an index-array bincount."""
        full = FrequencyGrid.centered(1535.2e-9, 40e-9, n=600)
        grid = FrequencyGrid(full.start, full.d_omega, 300)  # off-centre
        rows = spectral._BAND_VALUES // grid.n
        assert rows < grid.n < 2 * rows
        rng = np.random.default_rng(8)
        jsa = normalized_jsa(
            grid, rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
        )
        _, density = antidiagonal_marginal(jsa)
        index_sum = np.add.outer(np.arange(300), np.arange(300)).ravel()
        expected = np.bincount(
            index_sum, (np.abs(jsa.amplitude) ** 2).ravel(), 300 + 300 - 1
        ) * grid.cell / grid.d_omega
        assert np.allclose(density, expected, rtol=1e-13, atol=0)


def same_bits(a, b) -> bool:
    """a and b hold the same float64 or complex128 bits, signs of zero
    included."""
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def band_rows(n) -> list:
    """Rows of each band of an n x n grid: full bands of _BAND_VALUES // n
    rows, and the rest in a shorter last band."""
    height = min(n, spectral._BAND_VALUES // n)
    full, rest = divmod(n, height)
    return [height] * full + [rest] * (rest > 0)


class TestBandLanes:
    @pytest.mark.parametrize(
        "n, bands",
        [
            pytest.param(2, 1, id="2pts"),
            pytest.param(100, 1, id="100pts-below-one-band-height"),
            pytest.param(300, 2, id="300pts-not-a-multiple-of-the-band-height"),
            pytest.param(1024, len(band_rows(1024)), id="1024pts"),
        ],
    )
    def test_two_lanes_give_the_bits_of_one(self, set_lanes, n, bands):
        """The JSA, its marginal, the difference table and |f|^2 have the
        same bits on one lane and on two."""
        rows = band_rows(n)
        assert len(rows) == bands
        assert [b.stop - b.start for b in spectral._row_bands(n)] == rows
        # 0.1 nm steps resolve the pump bandwidth
        grid = FrequencyGrid.centered(1535.2e-9, min(40e-9, n * 0.1e-9), n=n)
        runs = []
        for lanes in (1, 2):
            set_lanes(lanes)
            jsa = build_jsa(MODEL, grid)
            amps = jointstate.post_select(jsa, SplitterResponse())
            runs.append(
                (
                    jsa.amplitude,
                    antidiagonal_marginal(jsa)[1],
                    amps.difference_spectrum,
                    jointstate._power(jsa.amplitude),
                    np.array([jsa.discarded_fraction, amps.alpha, amps.norm_constant]),
                )
            )
        for one, two in zip(*runs):
            assert same_bits(one, two)

    def test_band_results_are_added_in_band_order(self, set_lanes, monkeypatch):
        """build_jsa adds its bands' norms, and the marginal its bands'
        anti-diagonal sums, in band order, bit for bit.

        A second build is handed the in-order total of the first build's
        band norms as its first band's norm and zeros for the others, so
        its discarded fraction is the in-order one whatever order it adds
        in; the same with the sorted total shows that this grid tells the
        two orders apart."""
        set_lanes(2)
        n = 1024
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=n)
        map_bands = spectral._map_bands
        recorded = []

        def recording(band, bands):
            recorded.append(map_bands(band, bands))
            return recorded[-1]

        monkeypatch.setattr(spectral, "_map_bands", recording)
        jsa = build_jsa(MODEL, grid)
        _, density = antidiagonal_marginal(jsa)
        norms, band_sums = recorded

        def discarded(total):
            def handing(band, bands):
                map_bands(band, bands)
                return [total] + [0.0] * (len(bands) - 1)

            monkeypatch.setattr(spectral, "_map_bands", handing)
            return build_jsa(MODEL, grid).discarded_fraction

        def added(values):
            # a plain left-to-right loop: sum() of floats compensates on
            # Python 3.12 and later
            total = 0.0
            for value in values:
                total += value
            return total

        in_order = discarded(added(norms))
        assert jsa.discarded_fraction == in_order
        assert discarded(added(sorted(norms))) != in_order

        def marginal(order):
            bands = spectral._row_bands(n)
            sums = np.zeros(2 * n - 1)
            for i in order:
                sums[bands[i].start : bands[i].stop + n - 1] += band_sums[i]
            return sums * grid.d_omega

        assert same_bits(density, marginal(range(len(band_sums))))
        assert not same_bits(density, marginal(reversed(range(len(band_sums)))))

    def test_bands_run_once_each_on_the_caller_and_one_helper(self, set_lanes):
        """Each band is taken once, by the calling thread or one helper
        thread, and the results come back in band order."""
        set_lanes(2)
        calls = []

        def band(rows):
            calls.append((rows.start, threading.get_ident()))
            return rows.start

        bands = [slice(i, i + 1) for i in range(64)]
        assert spectral._map_bands(band, bands) == list(range(64))
        assert sorted(start for start, _ in calls) == list(range(64))
        helpers = {thread for _, thread in calls} - {threading.get_ident()}
        assert len(helpers) <= 1

    def test_a_lane_that_stalls_leaves_its_bands_to_the_other(self, set_lanes):
        """While the first band it took is held up, the other lane takes
        every other band."""
        set_lanes(2)
        release = threading.Event()
        calls = []

        def band(rows):
            calls.append((rows.start, threading.get_ident()))
            if rows.start == 0:
                assert release.wait(timeout=10)
            elif rows.start == 7:  # the other lane has taken all the rest
                release.set()
            return rows.start

        bands = [slice(i, i + 1) for i in range(8)]
        assert spectral._map_bands(band, bands) == list(range(8))
        threads = dict(calls)
        assert all(threads[start] != threads[0] for start in range(1, 8))

    def test_a_failing_lane_leaves_the_other_no_new_band(self, set_lanes):
        """When the helper's band raises, the caller finishes the band it
        is on and takes no other."""
        set_lanes(2)
        caller = threading.get_ident()
        failed = threading.Event()
        helper = []
        calls = []

        def band(rows):
            calls.append(rows.start)
            if threading.get_ident() != caller:
                helper.append(threading.current_thread())
                failed.set()
                raise ZeroDivisionError("helper band")
            assert failed.wait(timeout=10)
            helper[0].join(timeout=10)
            assert not helper[0].is_alive()  # it has stopped taking bands
            return rows.start

        bands = [slice(i, i + 1) for i in range(16)]
        with pytest.raises(ZeroDivisionError, match="helper band"):
            spectral._map_bands(band, bands)
        assert len(calls) <= 2

    @pytest.mark.parametrize("caller_fails", [True, False], ids=["caller-lane", "helper-lane"])
    def test_a_failing_band_raises_in_the_caller(self, set_lanes, caller_fails):
        """The exception of either lane reaches the caller, and the helper
        thread has ended when it does, also when it was still in a band."""
        set_lanes(2)
        caller = threading.get_ident()
        before = threading.active_count()

        def band(rows):
            if (threading.get_ident() == caller) == caller_fails:
                raise ZeroDivisionError(f"band {rows.start}")
            time.sleep(0.2)  # the other lane raises meanwhile
            return rows.start

        bands = [slice(i, i + 1) for i in range(6)]
        with pytest.raises(ZeroDivisionError, match="band"):
            spectral._map_bands(band, bands)
        assert threading.active_count() == before

    def test_one_lane_starts_no_thread(self, set_lanes, monkeypatch):
        started = []
        thread = threading.Thread

        def spy(*args, **kwargs):
            started.append(kwargs)
            return thread(*args, **kwargs)

        monkeypatch.setattr(spectral.threading, "Thread", spy)
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=512)
        set_lanes(1)
        jsa = build_jsa(MODEL, grid)
        antidiagonal_marginal(jsa)
        jointstate.post_select(jsa, SplitterResponse()).difference_spectrum
        assert started == []
        set_lanes(2)
        build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 10e-9, n=100))  # one band
        assert started == []
        build_jsa(MODEL, grid)
        assert len(started) == 1

    @staticmethod
    def set_blas_threads(monkeypatch, **values):
        """Set the BLAS thread variables named in ``values``, unset the rest."""
        for names in spectral._BLAS_THREAD_VARIABLES:
            for name in names:
                if name in values:
                    monkeypatch.setenv(name, values[name])
                else:
                    monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize("cpus, lanes", [({0}, 1), ({0, 1}, 2), ({0, 1, 2, 3}, 2)])
    def test_lane_count_follows_the_cpu_affinity(self, monkeypatch, cpus, lanes):
        self.set_blas_threads(monkeypatch, OMP_NUM_THREADS="1")
        monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert spectral._lane_count() == lanes

    def test_one_lane_without_cpu_affinity(self, monkeypatch):
        self.set_blas_threads(monkeypatch, OMP_NUM_THREADS="1")
        monkeypatch.delattr(spectral.os, "sched_getaffinity", raising=False)
        assert spectral._lane_count() == 1

    @pytest.mark.parametrize(
        "values, lanes",
        [
            pytest.param({}, 1, id="default-threads"),
            pytest.param({"OMP_NUM_THREADS": "1"}, 2, id="omp-1"),
            pytest.param({"OMP_NUM_THREADS": "2"}, 1, id="omp-2"),
            pytest.param(
                {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
                2,
                id="all-1",
            ),
            pytest.param({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, id="both-own-1"),
            pytest.param({"OPENBLAS_NUM_THREADS": "1"}, 1, id="openblas-1-mkl-default"),
            pytest.param({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1, id="openblas-4"),
            pytest.param({"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1, id="mkl-2"),
            pytest.param({"GOTO_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2, id="goto-1"),
            pytest.param({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2, id="empty-is-unset"),
        ],
    )
    def test_two_lanes_only_with_one_blas_thread(self, monkeypatch, values, lanes):
        """On two CPUs, two lanes need the environment to set OpenBLAS and
        MKL alike to one thread."""
        self.set_blas_threads(monkeypatch, **values)
        monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert spectral._lane_count() == lanes


class TestApplyBandpass:
    def test_matches_outer_mask_on_rectangular_grid(self):
        """The cropped output is the window block of masking with the outer
        product of the axis window, on an off-centre grid whose window edges
        fall between grid points and cut the axis at both ends."""
        grid = FrequencyGrid(GRID.axis[30], GRID.d_omega, 200)
        rng = np.random.default_rng(9)
        jsa = normalized_jsa(
            grid, rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
        )
        center, width = 1536.1e-9, 21.7e-9
        lam = omega_to_wavelength(grid.axis)
        lo, hi = center - width / 2, center + width / 2
        mask = (lam >= lo) & (lam <= hi)
        assert not np.any((lam == lo) | (lam == hi))
        assert not mask[0] and not mask[-1] and mask.sum() > 2
        reference = np.where(np.outer(mask, mask), jsa.amplitude, 0.0)
        kept = np.sum(np.abs(reference) ** 2) * grid.cell
        reference /= np.sqrt(kept)

        out = apply_bandpass(jsa, center, width)
        first = np.flatnonzero(mask)[0]
        assert out.grid == FrequencyGrid(grid.axis[first], grid.d_omega, mask.sum())
        block = reference[np.ix_(mask, mask)]
        assert np.max(np.abs(out.amplitude - block)) <= 1e-14 * np.max(np.abs(block))
        assert out.discarded_fraction == pytest.approx(1 - kept, abs=1e-14)

    def test_full_window_is_identity(self):
        jsa = build_jsa(MODEL, GRID)
        out = apply_bandpass(jsa, 1535.2e-9, 200e-9)
        assert out.grid == GRID
        assert np.array_equal(out.grid.axis, GRID.axis)
        assert np.max(np.abs(out.amplitude - jsa.amplitude)) < 1e-12
        assert out.discarded_fraction < 1e-12

    def test_disjoint_window_rejected(self):
        jsa = build_jsa(MODEL, GRID)
        with pytest.raises(EmptySupportError):
            apply_bandpass(jsa, 800e-9, 10e-9)

    def test_one_point_window_rejected(self):
        """A window narrower than one grid step around a grid point keeps
        a single point, on which no grid can be built."""
        jsa = build_jsa(MODEL, GRID)
        center = float(omega_to_wavelength(GRID.axis[100]))
        with pytest.raises(EmptySupportError, match="fewer than 2"):
            apply_bandpass(jsa, center, 1e-12)

    def test_default_window_discards_little(self):
        jsa = build_jsa(MODEL, GRID)
        out = apply_bandpass(jsa, 1535.2e-9, 40e-9)
        assert out.discarded_fraction < 0.05
        assert out.norm() == pytest.approx(1.0, abs=1e-9)

    def test_narrow_window_reports_out_of_band_norm(self):
        jsa = build_jsa(MODEL, GRID)
        out = apply_bandpass(jsa, 1535.2e-9, 10e-9)
        w = spectral._window(GRID.axis, 1535.2e-9 - 5e-9, 1535.2e-9 + 5e-9)
        assert 2 <= w.stop - w.start < GRID.n
        assert out.grid == FrequencyGrid(GRID.axis[w.start], GRID.d_omega, w.stop - w.start)
        kept = np.sum(np.abs(jsa.amplitude[w, w]) ** 2) * GRID.cell
        assert out.discarded_fraction == pytest.approx(1 - kept, abs=1e-9)

    def test_rejects_nonpositive_width(self):
        jsa = build_jsa(MODEL, GRID)
        with pytest.raises(DomainError):
            apply_bandpass(jsa, 1535.2e-9, 0.0)

    def test_crop_allocates_only_the_output(self, set_lanes):
        """At 1024 points and a 36 nm window the band-pass holds the
        922 x 922 output block and nothing grid-sized besides, on one lane
        or two."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=1024))
        for lanes in (1, 2):
            set_lanes(lanes)
            tracemalloc.start()
            try:
                out = apply_bandpass(jsa, 1535.2e-9, 36e-9)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert out.amplitude.shape == (922, 922)
            assert peak <= out.amplitude.nbytes + 1e6, f"{lanes} lanes"

    @pytest.mark.parametrize(
        "n, window, seed",
        # model-calibrate's grid and window keep their seed-only ids
        [pytest.param(1024, 36e-9, seed, id=str(seed)) for seed in range(3)]
        + [pytest.param(n, window, seed, id=f"{n}pts-{window * 1e9:.0f}nm-{seed}")
           for n, window in [(512, 36e-9), (1024, 20e-9)] for seed in range(3)],
    )
    def test_crop_matches_zero_padding(self, n, window, seed):
        """The cropped JSA and the same JSA zero-padded back onto the full
        grid give the same edge split (to its root tolerance), alpha and
        coherence at 0 and +/-25.9 fs.  The crop keeps its parent's step bit
        for bit, so D(tau) at tau != 0 does not pick up a step error."""
        rng = np.random.default_rng(seed)
        model = PdcModel(
            pump_bandwidth_fwhm=rng.uniform(0.5e-9, 1.1e-9),
            crystal_length=rng.uniform(1.5e-3, 2.3e-3),
        )
        template = SplitterResponse(step_width=rng.uniform(5e-9, 9e-9))
        target = rng.uniform(0.45, 0.62)
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=n)
        cropped = apply_bandpass(build_jsa(model, grid), 1535.2e-9, window)
        w = spectral._window(grid.axis, 1535.2e-9 - window / 2, 1535.2e-9 + window / 2)
        m = w.stop - w.start
        assert cropped.grid == FrequencyGrid(grid.axis[w.start], grid.d_omega, m)
        pad = (w.start, grid.n - w.stop)
        padded = JsaGrid(grid, np.pad(cropped.amplitude, (pad, pad)))

        fits = [fit_edge_split(jsa, template, target) for jsa in (cropped, padded)]
        for edge in ("edge_wavelength_h", "edge_wavelength_v"):
            assert abs(getattr(fits[0], edge) - getattr(fits[1], edge)) <= 1e-13
        amps = [jointstate.post_select(jsa, fits[0]) for jsa in (cropped, padded)]
        assert amps[0].alpha == pytest.approx(amps[1].alpha, abs=1e-14)
        for tau in (-25.9e-15, 0.0, 25.9e-15):
            d = [jointstate.d_parameter(a, tau) for a in amps]
            assert abs(d[0] - d[1]) <= 1e-14


class TestJsaGridInvariant:
    def test_unnormalized_rejected(self):
        amp = np.ones((GRID.n, GRID.n), dtype=complex)
        with pytest.raises(DomainError):
            JsaGrid(GRID, amp)

    def test_normalized_factory(self):
        amp = np.random.default_rng(0).normal(size=(GRID.n, GRID.n))
        jsa = normalized_jsa(GRID, amp)
        assert jsa.norm() == pytest.approx(1.0, abs=1e-12)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(EmptySupportError):
            normalized_jsa(GRID, np.zeros((GRID.n, GRID.n)))


def write_table(path, jsa):
    """write_jsa without its sidecar, so that read_jsa parses the text."""
    write_jsa(path, jsa)
    os.remove(f"{path}.bin")


def parse_spy(monkeypatch):
    """The list of the calls read_jsa makes to np.loadtxt from now on."""
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(spectral.np, "loadtxt", spy)
    return calls


def assert_read_holds_one_chunk(path, monkeypatch, parsed):
    """read_jsa(path) parses the text iff `parsed`, and its traced peak is
    at most twice the amplitude's bytes."""
    calls = parse_spy(monkeypatch)
    tracemalloc.start()
    try:
        jsa = read_jsa(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bool(calls) == parsed
    assert peak <= 2 * jsa.amplitude.nbytes


def tree_digest(text, amplitude, leaf=1 << 19):
    """The sidecar's digest written out: the SHA-256 over the SHA-256
    digests of the text's leaves of ``leaf`` bytes, then of the
    amplitude's, the last leaf of each shorter."""
    leaves = [text[at : at + leaf] for at in range(0, len(text), leaf)]
    leaves += [amplitude[at : at + leaf] for at in range(0, len(amplitude), leaf)]
    return hashlib.sha256(b"".join(hashlib.sha256(x).digest() for x in leaves)).digest()


def signed_zero_table():
    """A 4-point table whose parts include -0.0 and subnormals."""
    grid = FrequencyGrid(GRID.start, GRID.d_omega, 4)
    amp = np.full((4, 4), complex(1e-20, -1e-20))
    amp[0, 0] = 1.0 / np.sqrt(grid.cell)
    amp[1, 1] = complex(-0.0, -0.0)
    amp[2, 3] = complex(-0.0, 1e-20)
    amp[3, 2] = complex(5e-324, -0.0)
    return JsaGrid(grid, amp)


class TestJsaFile:
    def test_round_trip_bit_exact(self, tmp_path):
        jsa = build_jsa(MODEL, GRID)
        path = tmp_path / "jsa.txt"
        write_table(path, jsa)
        back = read_jsa(path)
        assert np.array_equal(back.amplitude, jsa.amplitude)
        assert back.grid == jsa.grid

    @pytest.mark.parametrize("crop", [False, True], ids=["centered", "cropped"])
    def test_round_trip_keeps_the_grid(self, tmp_path, crop):
        """The header holds start and step exactly, so a read-back grid is
        the written one, and writing it again gives the same bytes."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        if crop:
            jsa = apply_bandpass(jsa, 1535.2e-9, 36e-9)
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        write_table(first, jsa)
        back = read_jsa(first)
        assert back.grid == jsa.grid
        write_jsa(second, back)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("block_values", [2, 28, 1 << 16])
    def test_writer_matches_per_element_reference(
        self, tmp_path, monkeypatch, block_values
    ):
        """Block formatting writes the bytes of one write per value, for
        blocks of one pair, of two rows with a short last block, and of
        the whole grid; -0.0 and subnormals keep their exact text."""
        grid = FrequencyGrid(GRID.start, GRID.d_omega, 7)
        rng = np.random.default_rng(3)
        amp = 1e-20 * (rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)))
        amp[0, 0] = 1.0 / np.sqrt(grid.cell)
        amp[1, 2] = complex(-0.0, 5e-324)
        amp[3, 4] = complex(-2.5e-310, -0.0)
        amp[6, 0] = complex(1e-20 / 3.0, -1e-300)
        jsa = JsaGrid(grid, amp)
        monkeypatch.setattr(spectral, "_WRITE_BLOCK_VALUES", block_values)
        path, ref = tmp_path / "jsa.txt", tmp_path / "ref.txt"
        write_table(path, jsa)
        with open(ref, "w", encoding="utf-8") as fh:
            fh.write(
                "# %d %d %.17g %.17g %.17g %.17g\n"
                % (7, 7, grid.axis[0], grid.d_omega, grid.axis[0], grid.d_omega)
            )
            for row in jsa.amplitude:
                for val in row:
                    fh.write("%.17g %.17g\n" % (val.real, val.imag))
        assert path.read_bytes() == ref.read_bytes()
        assert b"\n-0 4.9406564584124654e-324\n" in path.read_bytes()
        assert np.array_equal(read_jsa(path).amplitude.view(float), amp.view(float))

    def test_round_trip_keeps_every_bit(self, tmp_path):
        """Parts that are -0.0 or subnormal read back with their exact bits,
        and writing the table read gives the same bytes."""
        amp = signed_zero_table().amplitude
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        write_table(first, signed_zero_table())
        back = read_jsa(first)
        assert np.array_equal(back.amplitude.view(np.uint64), amp.view(np.uint64))
        write_jsa(second, back)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize(
        "edit",
        [lambda text: text.replace(b"\n", b"\r\n"),
         lambda text: text.replace(b"\n", b"\r", 1),
         lambda text: text.replace(b" ", b"\t"),
         lambda text: text + b"# a comment line\n",
         lambda text: text[:-1]],
        ids=["crlf", "cr-after-header", "tabs", "comment", "no-final-newline"],
    )
    def test_other_layouts_read_to_the_same_values(self, tmp_path, edit):
        """A table laid out other than the writer lays it out, which makes
        its sidecar stale, reads to the same values."""
        jsa = build_jsa(MODEL, GRID)
        path = tmp_path / "jsa.txt"
        write_jsa(path, jsa)
        path.write_bytes(edit(path.read_bytes()))
        assert np.array_equal(read_jsa(path).amplitude, jsa.amplitude)

    def test_read_holds_one_chunk_of_the_text(self, tmp_path, monkeypatch):
        """At 512 points (12 MB of text, 4 MB of values) a read without a
        sidecar holds the values, which become the amplitude without a
        copy, and the text np.loadtxt reads one chunk at a time."""
        path = tmp_path / "jsa.txt"
        write_table(path, build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512)))
        assert_read_holds_one_chunk(path, monkeypatch, parsed=True)

    def test_cached_read_holds_one_chunk_of_the_text(self, tmp_path, monkeypatch, set_lanes):
        """A read from the sidecar hashes the text one chunk at a time per
        lane, on one lane or two, and holds no more than the parse does."""
        path = tmp_path / "jsa.txt"
        write_jsa(path, build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512)))
        for lanes in (1, 2):
            set_lanes(lanes)
            assert_read_holds_one_chunk(path, monkeypatch, parsed=False)

    @pytest.mark.parametrize("table", ["default", "cropped", "signed-zero"])
    def test_cached_read_equals_parsed_read(self, tmp_path, monkeypatch, table):
        """The sidecar holds the digest of the table's bytes and the
        amplitude's (a SHA-256 over the SHA-256 of each 512 KiB leaf), then
        the amplitude as little-endian complex128 in C order; a read from it
        gives the bits and the grid that parsing the text gives, and a read
        writes no file."""
        jsa = {
            "default": lambda: build_jsa(
                MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512)
            ),
            "cropped": lambda: apply_bandpass(build_jsa(MODEL, GRID), 1535.2e-9, 36e-9),
            "signed-zero": signed_zero_table,
        }[table]()
        path, sidecar = tmp_path / "jsa.txt", tmp_path / "jsa.txt.bin"
        write_jsa(path, jsa)
        text = path.read_bytes()
        amplitude = jsa.amplitude.astype("<c16").tobytes()
        digest = tree_digest(text, amplitude)
        assert sidecar.read_bytes() == digest + amplitude
        calls = parse_spy(monkeypatch)
        cached = read_jsa(path)
        assert calls == []
        sidecar.unlink()
        parsed = read_jsa(path)
        assert calls and not sidecar.exists()
        assert cached.grid == parsed.grid == jsa.grid
        assert np.array_equal(
            cached.amplitude.view(np.uint64), parsed.amplitude.view(np.uint64)
        )
        assert path.read_bytes() == text

    def test_sidecar_and_read_do_not_depend_on_the_lanes(self, tmp_path, monkeypatch, set_lanes):
        """The writer gives the same sidecar, and a read from it the same
        bits, on one lane and on two."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        sidecars, reads = [], []
        for lanes in (1, 2):
            set_lanes(lanes)
            path = tmp_path / f"{lanes}" / "jsa.txt"
            path.parent.mkdir()
            write_jsa(path, jsa)
            sidecars.append((tmp_path / f"{lanes}" / "jsa.txt.bin").read_bytes())
            calls = parse_spy(monkeypatch)
            reads.append(read_jsa(path).amplitude.view(np.uint64))
            assert calls == []
        assert sidecars[0] == sidecars[1]
        assert np.array_equal(reads[0], reads[1])
        assert np.array_equal(reads[0], jsa.amplitude.view(np.uint64))

    @pytest.mark.parametrize("offset", [-1, 0, 1, "one-leaf"])
    def test_every_leaf_boundary_reads_from_the_sidecar(self, tmp_path, monkeypatch, offset):
        """With 48-byte leaves, tables whose text is one byte under, exactly
        at and one byte over a multiple of the leaf, and a table smaller
        than one leaf, are read from the sidecar; the 400 bytes of a 5 x 5
        amplitude end in a short leaf.  The text's length is set by the
        signs of the small values: a sign adds one byte."""
        leaf = 48 if offset != "one-leaf" else 4096
        monkeypatch.setattr(spectral, "_TABLE_CHUNK", leaf)
        grid = FrequencyGrid(GRID.start, GRID.d_omega, 5)
        amp = np.full((5, 5), complex(1e-20, 1e-20))
        amp[0, 0] = 1.0 / np.sqrt(grid.cell)
        path, sidecar = tmp_path / "jsa.txt", tmp_path / "jsa.txt.bin"
        write_jsa(path, JsaGrid(grid, amp))
        if offset != "one-leaf":
            signs = (offset - path.stat().st_size) % leaf
            amp.view(float).reshape(-1)[2 : 2 + signs] *= -1.0
            write_jsa(path, JsaGrid(grid, amp))
            assert path.stat().st_size % leaf == offset % leaf
            assert path.stat().st_size > leaf
        else:
            assert path.stat().st_size < leaf
        text, amplitude = path.read_bytes(), amp.astype("<c16").tobytes()
        assert sidecar.read_bytes() == tree_digest(text, amplitude, leaf) + amplitude
        calls = parse_spy(monkeypatch)
        back = read_jsa(path)
        assert calls == []
        assert np.array_equal(back.amplitude.view(np.uint64), amp.view(np.uint64))

    @pytest.mark.parametrize(
        "case",
        ["edited-text", "other-table", "other-amplitude", "truncated", "one-byte-long",
         "empty", "big-endian", "npy-file", "npz-file", "edited-last-text-leaf",
         "flipped-last-amplitude-leaf", "flat-digest"],
    )
    def test_unusable_sidecar_falls_back_to_the_parse(self, tmp_path, monkeypatch, case):
        """A sidecar that is stale, from another table, of another size or
        holds the right bytes in another layout is not used: the read
        parses the text, and gives the text's values."""
        grid = FrequencyGrid(GRID.start, GRID.d_omega, 40)
        jsa = build_jsa(MODEL, grid)
        path, sidecar = tmp_path / "jsa.txt", tmp_path / "jsa.txt.bin"
        if case.startswith(("edited-last", "flipped-last")):
            # 4 KiB leaves: the text and the amplitude each end in a short leaf
            monkeypatch.setattr(spectral, "_TABLE_CHUNK", 1 << 12)
        write_jsa(path, jsa)
        held = sidecar.read_bytes()
        digest = held[:32]
        other = normalized_jsa(grid, np.random.default_rng(5).normal(size=(40, 40)))
        if case == "edited-text":
            # the first real part one ulp up, which the sidecar does not hold
            header, first, rest = path.read_bytes().split(b"\n", 2)
            value = np.nextafter(jsa.amplitude[0, 0].real, np.inf)
            edited = b"%.17g %.17g" % (value, jsa.amplitude[0, 0].imag)
            path.write_bytes(b"\n".join([header, edited, rest]))
        elif case == "other-table":
            write_jsa(tmp_path / "other.txt", other)
            sidecar.write_bytes((tmp_path / "other.txt.bin").read_bytes())
        elif case == "other-amplitude":
            # the digest covers the amplitude, not only the text
            sidecar.write_bytes(digest + other.amplitude.astype("<c16").tobytes())
        elif case == "truncated":
            sidecar.write_bytes(held[:-100])
        elif case == "one-byte-long":
            sidecar.write_bytes(held + b"\0")
        elif case == "empty":
            sidecar.write_bytes(b"")
        elif case == "big-endian":
            # the written digest, the amplitude's bytes swapped
            sidecar.write_bytes(digest + jsa.amplitude.astype(">c16").tobytes())
        elif case == "npy-file":
            with open(sidecar, "wb") as fh:
                np.save(fh, jsa.amplitude)
        elif case == "npz-file":
            # the sidecar of the earlier layout, under the new name
            with open(sidecar, "wb") as fh:
                np.savez(fh, amplitude=jsa.amplitude, sha256=np.frombuffer(digest, np.uint8))
        elif case == "edited-last-text-leaf":
            # the last imaginary part one ulp up, in the text's short last leaf
            text = path.read_bytes()
            assert len(text) % (1 << 12) and len(text) > 1 << 12
            head = text[:-1].rsplit(b"\n", 1)[0]
            value = np.nextafter(jsa.amplitude[-1, -1].imag, np.inf)
            path.write_bytes(head + b"\n%.17g %.17g\n" % (jsa.amplitude[-1, -1].real, value))
        elif case == "flat-digest":
            # the sidecar of the earlier digest: one SHA-256 over text and amplitude
            amplitude = held[32:]
            sidecar.write_bytes(hashlib.sha256(path.read_bytes() + amplitude).digest() + amplitude)
        elif case == "flipped-last-amplitude-leaf":
            assert (len(held) - 32) % (1 << 12) and len(held) - 32 > 1 << 12
            sidecar.write_bytes(held[:-1] + bytes([held[-1] ^ 1]))
        expected = path.read_bytes()
        calls = parse_spy(monkeypatch)
        back = read_jsa(path)
        assert calls
        (tmp_path / "copy.txt").write_bytes(expected)
        parsed = read_jsa(tmp_path / "copy.txt")
        assert np.array_equal(back.amplitude.view(np.uint64), parsed.amplitude.view(np.uint64))
        if case not in ("edited-text", "edited-last-text-leaf"):
            assert np.array_equal(back.amplitude, jsa.amplitude)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        flips=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(1, 255)), max_size=4),
        cut=st.one_of(st.none(), st.integers(0, 1 << 20)),
    )
    def test_damaged_sidecar_reads_the_parsed_values(self, n, seed, flips, cut):
        """Bytes of a sidecar flipped or cut off: the read gives the values
        of the text, bit for bit."""
        grid = FrequencyGrid(GRID.start, GRID.d_omega, n)
        rng = np.random.default_rng(seed)
        jsa = normalized_jsa(grid, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "jsa.txt")
            write_jsa(path, jsa)
            with open(f"{path}.bin", "rb") as fh:
                data = bytearray(fh.read())
            for at, mask in flips:
                data[at % len(data)] ^= mask
            if cut is not None:
                data = data[: cut % (len(data) + 1)]
            with open(f"{path}.bin", "wb") as fh:
                fh.write(data)
            back = read_jsa(path)
        assert np.array_equal(back.amplitude.view(np.uint64), jsa.amplitude.view(np.uint64))

    def test_write_holds_one_block_of_the_text(self, tmp_path):
        """At 512 points (4 MB of values, 12 MB of text) a write holds one
        block of text and its formatting arrays at a time, less than the
        amplitude itself."""
        jsa = build_jsa(MODEL, FrequencyGrid.centered(1535.2e-9, 40e-9, n=512))
        path = tmp_path / "jsa.txt"
        tracemalloc.start()
        try:
            write_jsa(path, jsa)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= jsa.amplitude.nbytes

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n")
        with pytest.raises(FormatError):
            read_jsa(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            (1, "%d" % (GRID.n - 1)),  # fewer idler points
            (4, "%.17g" % (GRID.axis[0] + GRID.d_omega)),  # shifted idler start
            (5, "%.17g" % (0.5 * GRID.d_omega)),  # halved idler step
        ],
        ids=["count", "start", "step"],
    )
    def test_unequal_axes_rejected(self, tmp_path, field, value):
        """A header whose idler axis differs from the signal axis, written
        by hand over a valid table."""
        amp = np.random.default_rng(1).normal(size=(GRID.n, GRID.n))
        path = tmp_path / "jsa.txt"
        write_jsa(path, normalized_jsa(GRID, amp))
        header, table = path.read_text().split("\n", 1)
        fields = header.split()[1:]
        fields[field] = value
        path.write_text("# " + " ".join(fields) + "\n" + table)
        with pytest.raises(FormatError, match="axes must be identical"):
            read_jsa(path)

    @pytest.mark.parametrize(
        "header, message",
        [("2 2 1 0 1 0", ":1: grid step must be positive, got 0.0"),
         ("2 2 1 -1 1 -1", ":1: grid step must be positive, got -1.0"),
         ("2 2 nan 1 nan 1", ":1: values must be finite"),
         ("2 2 1 inf 1 inf", ":1: values must be finite"),
         ("2 2 1e308 1e308 1e308 1e308",
          ":1: grid's last point 1e+308 + 1 * 1e+308 is not finite"),
         ("1 1 1 1 1 1", ":1: grid needs at least 2 points, got 1"),
         ("-2 -2 1 1 1 1", ":1: grid needs at least 2 points, got -2")],
        ids=["zero-step", "negative-step", "nan-start", "inf-step", "huge-axis",
             "one-point", "negative-count"],
    )
    def test_bad_header_axis_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.txt"
        path.write_text("# " + header + "\n" + "0.5 0\n" * 4)
        with pytest.raises(FormatError) as info:
            read_jsa(path)
        assert str(info.value) == f"{path}{message}"

    def test_huge_header_count_fails_on_the_row_count(self, tmp_path):
        """The axis is derived lazily, and a sidecar is read only when it
        has the size the header's count gives, so a header count of 10^12
        points allocates nothing before the table is found to be short,
        with or without a real sidecar beside it."""
        path = tmp_path / "bad.txt"
        path.write_text("# 1000000000000 1000000000000 1 1 1 1\n" + "0.5 0\n" * 4)
        with pytest.raises(FormatError) as info:
            read_jsa(path)
        assert str(info.value) == f"{path}: expected {10**24} complex rows, found 4"
        write_jsa(path, normalized_jsa(FrequencyGrid(GRID.start, GRID.d_omega, 2), np.ones((2, 2))))
        text = path.read_bytes()
        path.write_bytes(text.replace(b"# 2 2 ", b"# 1000000000000 1000000000000 ", 1))
        with pytest.raises(FormatError) as info:
            read_jsa(path)
        assert str(info.value) == f"{path}: expected {10**24} complex rows, found 4"

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# 2 2 1e15 1e12 1e15 1e12\n0 0\n0 1\n")
        with pytest.raises(FormatError):
            read_jsa(path)
