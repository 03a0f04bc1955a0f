"""Tests for count simulation and state reconstruction."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polentsim import tomography
from polentsim.errors import (
    ConvergenceError,
    DomainError,
    FormatError,
    UndefinedVisibilityError,
)
from polentsim.jointstate import PolarizationDensityMatrix, density_matrix
from polentsim.metrics import fidelity
from polentsim.tomography import (
    _DUAL,
    _PROJECTORS,
    BASIS_KETS,
    PROJECTION_PAIRS,
    CountTable,
    attach_accidentals,
    calibrate_pair_rate,
    canonical_label,
    expected_rates,
    linear_inversion,
    mix_background,
    mle_reconstruct,
    projection_probabilities,
    projector,
    read_count_table,
    sample_counts,
    subtract_accidentals,
    visibility,
    write_count_table,
)
from state_oracles import projector_stack

BELL = density_matrix(0.5, 0.5, 0.5)  # (|HV> + |VH>)/sqrt(2)

# The calibrated, degraded model state at 25.9 fs with the acceptance
# background, rates and acquisition time (criterion 08).
C08_TRUTH = mix_background(
    density_matrix(0.5474, 0.4526, 0.3393 + 0.1287j), 0.0125
)


def c08_corrected(seed: int) -> np.ndarray:
    means = expected_rates(
        C08_TRUTH, calibrate_pair_rate(C08_TRUTH, 4.0), 870.0**2 / 1.9e6, 120.0
    )
    table = sample_counts(
        means, seed=seed, acquisition_time=120.0, gate_rate=1.9e6,
        singles_rate=870.0,
    )
    return subtract_accidentals(attach_accidentals(table))


def stationarity_gap(corrected, rho) -> float:
    """lambda_max(R) - 1 at rho; it is 0 at the Poisson likelihood maximum
    and bounds the log-likelihood gap to it."""
    observed = corrected > 0
    freqs = corrected[observed] / corrected.sum()
    stack = projector_stack()[observed]
    probs = np.real(np.einsum("nij,ji->n", stack, rho))
    r = np.tensordot(freqs / probs, stack, axes=1)
    return float(np.linalg.eigvalsh(r).max() - 1.0)


def random_state(rng) -> PolarizationDensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return PolarizationDensityMatrix(rho / np.trace(rho).real)


class TestProjectors:
    def test_kets_normalized(self):
        for ket in BASIS_KETS.values():
            assert np.vdot(ket, ket).real == pytest.approx(1.0)

    def test_projector_idempotent(self):
        p = projector("Dp", "L")
        assert np.allclose(p @ p, p)
        assert np.allclose(p, p.conj().T)

    def test_complementary_pairs_resolve_identity(self):
        for a, b in (("H", "V"), ("Dp", "Dm"), ("R", "L")):
            total = sum(
                projector(x, y) for x in (a, b) for y in (a, b)
            )
            assert np.allclose(total, np.eye(4))

    def test_label_aliases(self):
        assert canonical_label("D+") == "Dp"
        assert canonical_label("D-") == "Dm"
        with pytest.raises(DomainError):
            canonical_label("Q")

    def test_projectors_sum_to_nine_identity(self):
        assert not _PROJECTORS.flags.writeable
        assert np.array_equal(_PROJECTORS, projector_stack())
        assert np.allclose(_PROJECTORS.sum(axis=0), 9.0 * np.eye(4), atol=1e-14)

    def test_dual_frame_reconstructs_any_operator(self):
        """sum_k Tr(P_k X) Q_k = X: the 36 settings are informationally
        complete and the dual stack inverts them."""
        assert _DUAL.shape == (36, 4, 4)
        assert not _DUAL.flags.writeable
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = a + a.conj().T
        probs = np.real(np.einsum("kij,ji->k", projector_stack(), x))
        assert np.max(np.abs(np.tensordot(probs, _DUAL, axes=(0, 0)) - x)) < 1e-14

    def test_bell_state_probabilities(self):
        probs = dict(zip(PROJECTION_PAIRS, projection_probabilities(BELL)))
        assert probs[("H", "V")] == pytest.approx(0.5)
        assert probs[("V", "H")] == pytest.approx(0.5)
        assert probs[("H", "H")] == pytest.approx(0.0, abs=1e-12)
        assert probs[("Dp", "Dp")] == pytest.approx(0.5)
        # (|HV> + |VH>)/sqrt(2) is symmetric: co-circular settings fire
        assert probs[("R", "R")] == pytest.approx(0.5)
        assert probs[("R", "L")] == pytest.approx(0.0, abs=1e-12)


class TestRates:
    def test_expected_rates_shape_and_floor(self):
        rates = expected_rates(BELL, pair_rate=8.0, accidental_rate=0.4)
        assert rates.shape == (36,)
        assert np.all(rates >= 0.4 * 120 - 1e-9)

    def test_calibration_targets_cross_rate(self):
        pair_rate = calibrate_pair_rate(BELL, target_cross_rate=4.0)
        rates = expected_rates(BELL, pair_rate, 0.0)
        idx = PROJECTION_PAIRS.index(("H", "V"))
        assert rates[idx] == pytest.approx(4.0 * 120)

    def test_calibration_rejects_no_cross_counts(self):
        rho = PolarizationDensityMatrix(np.diag([1.0, 0, 0, 0]).astype(complex))
        with pytest.raises(DomainError):
            calibrate_pair_rate(rho)

    def test_negative_rate_rejected(self):
        with pytest.raises(DomainError):
            expected_rates(BELL, -1.0, 0.0)


class TestSampling:
    def test_deterministic_given_seed(self):
        means = expected_rates(BELL, 8.0, 0.4)
        a = sample_counts(means, seed=42)
        b = sample_counts(means, seed=42)
        assert np.array_equal(a.coincidences, b.coincidences)
        assert np.array_equal(a.singles, b.singles)

    def test_different_seeds_differ(self):
        means = expected_rates(BELL, 8.0, 0.4)
        a = sample_counts(means, seed=1)
        b = sample_counts(means, seed=2)
        assert not (
            np.array_equal(a.coincidences, b.coincidences)
            and np.array_equal(a.singles, b.singles)
        )

    def test_counts_near_means(self):
        means = expected_rates(BELL, 8.0, 0.4)
        table = sample_counts(means, seed=3)
        counts = table.coincidences
        # 6 sigma on every Poisson draw
        assert np.all(np.abs(counts - means) <= 6 * np.sqrt(means) + 6)

    def test_accidental_arithmetic(self):
        singles = np.full((36, 2), 104400)
        singles[5] = (3, 7)
        table = attach_accidentals(
            CountTable(np.full(36, 480), singles, acquisition_time=120.0,
                       gate_rate=1.9e6)
        )
        expected = np.full(36, 104400**2 / (1.9e6 * 120.0))
        expected[5] = 21 / (1.9e6 * 120.0)
        assert np.array_equal(table.accidentals, expected)

    def test_attach_and_subtract(self):
        means = expected_rates(BELL, 8.0, 0.4)
        table = attach_accidentals(sample_counts(means, seed=4))
        assert np.all(table.accidentals > 0)
        corrected = subtract_accidentals(table)
        assert np.all(corrected >= 0)
        assert np.all(
            corrected <= table.coincidences - table.accidentals + 1e-9
        ) or np.any(corrected == 0)


class TestCountTable:
    def _arrays(self):
        return np.arange(36), np.arange(72).reshape(36, 2)

    def test_arrays_are_read_only_copies(self):
        coincidences, singles = self._arrays()
        table = CountTable(coincidences, singles)
        coincidences[0] = 99
        assert table.coincidences[0] == 0
        assert table.coincidences.dtype == np.int64
        assert table.singles.dtype == np.int64
        assert np.array_equal(table.accidentals, np.zeros(36))
        for array in (table.coincidences, table.singles, table.accidentals):
            assert not array.flags.writeable

    @pytest.mark.parametrize(
        "field, value, message",
        [("coincidences", np.arange(35), "coincidences must be a"),
         ("singles", np.arange(36), "singles must be a"),
         ("accidentals", np.zeros((36, 1)), "accidentals must be a"),
         ("coincidences", np.full(36, 1.5), "coincidences must be a"),
         ("coincidences", np.full(36, -1), "coincidences must be finite and non"),
         ("singles", np.full((36, 2), 2**63, dtype=np.uint64), "singles must be finite"),
         ("accidentals", np.full(36, np.inf), "accidentals must be finite"),
         ("accidentals", np.full(36, np.nan), "accidentals must be finite"),
         ("acquisition_time", 0.0, "acquisition_time must be positive"),
         ("gate_rate", np.inf, "gate_rate must be positive")],
        ids=["short", "flat-singles", "accidentals-shape", "fractional",
             "negative", "wrapped-uint64", "inf-accidentals", "nan-accidentals",
             "zero-time", "inf-gate"],
    )
    def test_rejects(self, field, value, message):
        coincidences, singles = self._arrays()
        kwargs = {"coincidences": coincidences, "singles": singles, field: value}
        with pytest.raises(DomainError, match=message):
            CountTable(**kwargs)

    def test_accidentals_that_overflow_are_rejected(self):
        """A rate product that underflows makes s_a s_b / (g T) infinite."""
        table = CountTable(*self._arrays(), acquisition_time=1e-200, gate_rate=1e-200)
        with pytest.raises(DomainError, match="accidentals must be finite"):
            attach_accidentals(table)


class TestLinearInversion:
    def test_exact_on_noiseless_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = random_state(rng)
            values = 1000.0 * projection_probabilities(rho)
            est = linear_inversion(values)
            assert np.max(np.abs(est - rho.elements)) < 1e-9

    def test_scale_invariant(self):
        values = 1000.0 * projection_probabilities(BELL)
        assert np.allclose(
            linear_inversion(values), linear_inversion(7.0 * values)
        )

    def test_rejects_empty_data(self):
        with pytest.raises(DomainError):
            linear_inversion(np.zeros(36))


class TestMle:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            rho = random_state(rng)
            values = 480.0 * projection_probabilities(rho)
            est = mle_reconstruct(values)
            assert fidelity(est, rho) > 0.9999

    def test_noisy_round_trip(self):
        truth = mix_background(BELL, 0.0125)
        means = expected_rates(truth, calibrate_pair_rate(truth), 0.3983)
        table = attach_accidentals(sample_counts(means, seed=7))
        est = mle_reconstruct(subtract_accidentals(table))
        assert fidelity(est, truth) > 0.97

    def test_output_is_physical(self):
        values = 480.0 * projection_probabilities(BELL)
        est = mle_reconstruct(values)
        assert np.linalg.eigvalsh(est.elements).min() >= -1e-10
        assert np.trace(est.elements).real == pytest.approx(1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(DomainError):
            mle_reconstruct(np.zeros(36))

    def test_stationary_on_counting_statistics(self):
        gaps = []
        for seed in range(20):
            corrected = c08_corrected(seed)
            est = mle_reconstruct(corrected)
            gaps.append(stationarity_gap(corrected, est.elements))
        assert np.median(gaps) <= 1e-4

    def test_iteration_cap_raises_with_best_state(self, monkeypatch):
        monkeypatch.setattr(tomography, "_MLE_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations") as info:
            mle_reconstruct(c08_corrected(0))
        best = info.value.best
        assert isinstance(best, PolarizationDensityMatrix)
        assert np.linalg.eigvalsh(best.elements).min() >= -1e-10
        assert np.trace(best.elements).real == pytest.approx(1.0)


class TestVisibility:
    def test_bell_state_perfect_contrast(self):
        values = projection_probabilities(BELL)
        for family in ("HV", "DD", "RL"):
            assert visibility(values, family) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_state_zero_contrast(self):
        rho = PolarizationDensityMatrix(np.eye(4, dtype=complex) / 4)
        values = projection_probabilities(rho)
        for family in ("HV", "DD", "RL"):
            assert visibility(values, family) == pytest.approx(0.0, abs=1e-12)

    def test_background_lowers_contrast(self):
        values = projection_probabilities(mix_background(BELL, 0.0125))
        v = visibility(values, "DD")
        assert 0.9 < v < 1.0
        # max setting: 0.95*0.5 + b; its partner carries only b
        assert v == pytest.approx(0.95 * 0.5 / (0.95 * 0.5 + 0.025), abs=1e-9)

    @pytest.mark.parametrize(
        "block, expected",
        [((5.0, 1.0, 5.0, 3.0), 4.0 / 6.0), ((1.0, 2.0, 4.0, 6.0), 0.2)],
        ids=["tie-takes-first", "partner-in-same-row"],
    )
    def test_max_setting_and_partner(self, block, expected):
        """The first maximum in (H,H), (H,V), (V,H), (V,V) order, against
        the other analyzer-b setting of its row."""
        values = np.zeros(36)
        for pair, value in zip((("H", "H"), ("H", "V"), ("V", "H"), ("V", "V")), block):
            values[PROJECTION_PAIRS.index(pair)] = value
        assert visibility(values, "HV") == pytest.approx(expected, abs=1e-15)

    def test_undefined_for_empty_family(self):
        with pytest.raises(UndefinedVisibilityError):
            visibility(np.zeros(36), "RL")

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            visibility(np.ones(36), "XY")


class TestBackground:
    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.0, max_value=0.25))
    def test_stays_physical(self, b):
        mixed = mix_background(BELL, b)
        assert np.trace(mixed.elements).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(mixed.elements).min() >= -1e-12

    def test_diagonal_elements(self):
        mixed = mix_background(BELL, 0.0125)
        assert mixed.elements[0, 0] == pytest.approx(0.0125)
        assert mixed.elements[1, 1] == pytest.approx(0.95 * 0.5 + 0.0125)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            mix_background(BELL, 0.3)


class TestCountTableFile:
    def _table(self):
        means = expected_rates(BELL, 8.0, 0.4)
        return sample_counts(means, seed=8)

    def test_round_trip(self, tmp_path):
        table = self._table()
        path = tmp_path / "counts.txt"
        write_count_table(path, table)
        back = read_count_table(path)
        assert np.array_equal(back.coincidences, table.coincidences)
        assert np.array_equal(back.singles, table.singles)
        assert np.array_equal(back.accidentals, np.zeros(36))
        assert back.acquisition_time == table.acquisition_time
        assert back.gate_rate == table.gate_rate

    def test_missing_row_names_pair(self, tmp_path):
        table = self._table()
        path = tmp_path / "counts.txt"
        write_count_table(path, table)
        lines = path.read_text().splitlines()
        removed = lines.pop(3)  # drop one record line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_count_table(path)
        pair = removed.split()[:2]
        assert f"{pair[0]},{pair[1]}" in str(err.value)

    def test_duplicate_row_rejected(self, tmp_path):
        table = self._table()
        path = tmp_path / "counts.txt"
        write_count_table(path, table)
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            read_count_table(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("H V 1 2 3\n")
        with pytest.raises(FormatError):
            read_count_table(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("# 120 1.9e6\nH V 1 2\n")
        with pytest.raises(FormatError):
            read_count_table(path)

    @pytest.mark.parametrize("count", ["-1", str(2**63), str(10**23)])
    @pytest.mark.parametrize("column", [2, 3, 4])
    def test_count_out_of_range_names_line(self, tmp_path, count, column):
        path = tmp_path / "counts.txt"
        write_count_table(path, self._table())
        lines = path.read_text().splitlines()
        parts = lines[7].split()
        parts[column] = count
        lines[7] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_count_table(path)
        assert str(err.value) == f"{path}:8: counts must lie in [0, 2^63 - 1]"

    @pytest.mark.parametrize(
        "header, accepted", [("4.74e-136 1e-135", True), ("4.73e-136 1e-135", False)]
    )
    def test_rates_too_small_for_accidentals_name_line(
        self, tmp_path, header, accepted
    ):
        """A header is accepted only if two singles of 2^63 - 1 still give
        finite accidentals: 2^126 / (g T) passes the largest double when
        g T falls below 4.732e-271."""
        path = tmp_path / "counts.txt"
        top = CountTable(np.zeros(36, dtype=np.int64), np.full((36, 2), 2**63 - 1))
        write_count_table(path, top)
        rows = path.read_text().splitlines()[1:]
        path.write_text("\n".join(["# " + header] + rows) + "\n")
        if accepted:
            accidentals = attach_accidentals(read_count_table(path)).accidentals
            assert np.all(np.isfinite(accidentals)) and accidentals.max() > 1e307
            return
        with pytest.raises(FormatError) as err:
            read_count_table(path)
        assert str(err.value) == (
            f"{path}:1: acquisition time times gate rate is too small for "
            "finite accidentals"
        )

    @settings(
        deadline=None, max_examples=60,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        counts=st.lists(
            st.one_of(st.sampled_from([0, 2**63 - 1]), st.integers(0, 2**63 - 1)),
            min_size=108, max_size=108,
        ),
        order=st.permutations(range(36)),
        aliased=st.lists(st.booleans(), min_size=36, max_size=36),
        rates=st.tuples(  # a product above 1e-270 keeps accidentals finite
            st.floats(min_value=1e-135, max_value=1e300),
            st.floats(min_value=1e-135, max_value=1e300),
        ),
    )
    def test_round_trip_any_counts(self, tmp_path, counts, order, aliased, rates):
        """Every int64 count, the D+/D- aliases and any row order read back
        to the same arrays."""
        table = CountTable(
            np.array(counts[:36]), np.array(counts[36:]).reshape(36, 2),
            acquisition_time=rates[0], gate_rate=rates[1],
        )
        path = tmp_path / "counts.txt"
        write_count_table(path, table)
        header, *rows = path.read_text().splitlines()
        alias = {"Dp": "D+", "Dm": "D-"}
        for k in np.flatnonzero(aliased):
            a, b, rest = rows[k].split(" ", 2)
            rows[k] = " ".join((alias.get(a, a), alias.get(b, b), rest))
        path.write_text("\n".join([header] + [rows[k] for k in order]) + "\n")
        back = read_count_table(path)
        assert np.array_equal(back.coincidences, table.coincidences)
        assert np.array_equal(back.singles, table.singles)
        assert (back.acquisition_time, back.gate_rate) == rates
