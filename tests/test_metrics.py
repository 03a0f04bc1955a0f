"""Tests for the scalar state characterizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim.errors import DomainError
from polentsim.jointstate import PolarizationDensityMatrix, density_matrix
from polentsim.metrics import (
    car,
    concurrence,
    extract_d,
    fidelity,
    format_report,
    purity,
    state_report,
)
from polentsim.tomography import (
    PROJECTION_PAIRS,
    attach_accidentals,
    expected_rates,
    sample_counts,
)

BELL = density_matrix(0.5, 0.5, 0.5)
MIXED = PolarizationDensityMatrix(np.eye(4, dtype=complex) / 4)


def random_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return PolarizationDensityMatrix(rho / np.trace(rho).real)


def random_unitary(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_product_state(rng):
    def qubit():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return v / np.linalg.norm(v)

    psi = np.kron(qubit(), qubit())
    return PolarizationDensityMatrix(np.outer(psi, psi.conj()))


class TestPurity:
    def test_pure_state(self):
        assert purity(BELL) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert purity(MIXED) == pytest.approx(0.25)

    def test_two_term_identity(self):
        alpha, beta, d = 0.52 / 0.95, 0.43 / 0.95, 0.3 + 0.1j
        rho = density_matrix(alpha, beta, d)
        assert purity(rho) == pytest.approx(
            alpha**2 + beta**2 + 2 * abs(d) ** 2
        )


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(BELL) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == pytest.approx(0.0, abs=1e-12)

    def test_two_term_state_equals_twice_coherence(self):
        rho = density_matrix(0.6, 0.4, 0.2 + 0.25j)
        assert concurrence(rho) == pytest.approx(
            2 * abs(0.2 + 0.25j), abs=1e-12
        )

    def test_product_states_are_unentangled(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            assert concurrence(random_product_state(rng)) < 1e-8

    def test_werner_threshold(self):
        # (1-p)I/4 + p|Bell><Bell| is separable up to p = 1/3
        for p, expected in ((0.2, 0.0), (0.8, (3 * 0.8 - 1) / 2)):
            rho = PolarizationDensityMatrix(
                (1 - p) * np.eye(4) / 4 + p * BELL.elements
            )
            assert concurrence(rho) == pytest.approx(expected, abs=1e-10)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(BELL, BELL) == pytest.approx(1.0)

    def test_orthogonal_pure_states(self):
        hv = PolarizationDensityMatrix(np.diag([0, 1.0, 0, 0]).astype(complex))
        vh = PolarizationDensityMatrix(np.diag([0, 0, 1.0, 0]).astype(complex))
        assert fidelity(hv, vh) == pytest.approx(0.0, abs=1e-8)

    def test_pure_state_formula(self):
        # against a pure state, fidelity reduces to sqrt(<psi|rho|psi>)
        rng = np.random.default_rng(10)
        rho = random_state(rng)
        psi = BELL.elements  # rank one
        overlap = np.sqrt(np.trace(psi @ rho.elements).real)
        assert fidelity(BELL, rho) == pytest.approx(overlap, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b = random_state(rng), random_state(rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            a, b = random_state(rng), random_state(rng)
            u = random_unitary(rng)
            ua = u @ a.elements @ u.conj().T
            ub = u @ b.elements @ u.conj().T
            assert fidelity(ua, ub) == pytest.approx(
                fidelity(a, b), abs=1e-9
            )

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        f = fidelity(random_state(rng), random_state(rng))
        assert 0.0 <= f <= 1.0


class TestExtractD:
    def test_reads_coherence_element(self):
        d = 0.21 - 0.17j
        rho = density_matrix(0.5, 0.5, d)
        got, phase = extract_d(rho)
        assert got == pytest.approx(d)
        assert phase == pytest.approx(np.angle(d))


class TestCar:
    def test_from_simulated_table(self):
        means = expected_rates(BELL, 8.0, 870.0**2 / 1.9e6)
        table = attach_accidentals(sample_counts(means, seed=13))
        value = car(table)
        ratios = []
        for pair in (("H", "V"), ("V", "H")):
            k = PROJECTION_PAIRS.index(pair)
            s_a, s_b = table.singles[k]
            ratios.append(table.coincidences[k] / (s_a * s_b / (1.9e6 * 120.0)))
        assert value == pytest.approx(max(ratios), rel=1e-15)

    def test_rejects_zero_accidentals(self):
        means = expected_rates(BELL, 8.0, 0.4)
        table = sample_counts(means, seed=14)  # accidentals never attached
        with pytest.raises(DomainError):
            car(table)


class TestReports:
    def test_format_order_and_selection(self):
        """Every given pair is rendered, in the order given, as ``%s %.12g``."""
        text = format_report({"car": 9.5, "purity": 0.75, "anything": 1 / 3})
        assert text == "car 9.5\npurity 0.75\nanything 0.333333333333\n"
        assert format_report({}) == ""

    def test_state_report_keys(self):
        text = state_report(BELL, reference=BELL)
        keys = [line.split()[0] for line in text.strip().splitlines()]
        assert keys == [
            "purity",
            "concurrence",
            "fidelity",
            "re_D",
            "im_D",
            "abs_D",
            "phase_rad",
        ]
