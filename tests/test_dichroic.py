"""Tests for the dichroic-mirror edge model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polentsim.dichroic import (
    SplitterResponse,
    read_transmission_table,
    sample_on_grid,
)
from polentsim.errors import DomainError, FormatError
from polentsim.spectral import FrequencyGrid, wavelength_to_omega

DEFAULT = SplitterResponse()

wavelengths = st.floats(min_value=1450e-9, max_value=1650e-9)


class TestEdgeResponse:
    def test_half_transmission_at_edge(self):
        t = DEFAULT.transmission(wavelength_to_omega(1535.2e-9), "H")
        assert t == pytest.approx(0.5, abs=1e-12)

    def test_per_polarization_edges(self):
        resp = SplitterResponse(
            edge_wavelength_h=1530e-9, edge_wavelength_v=1540e-9
        )
        t_h = resp.transmission(wavelength_to_omega(1530e-9), "H")
        t_v = resp.transmission(wavelength_to_omega(1540e-9), "V")
        assert t_h == pytest.approx(0.5, abs=1e-12)
        assert t_v == pytest.approx(0.5, abs=1e-12)

    def test_deep_transmission_band(self):
        # five step widths past the edge on the transmitting side
        lam = 1535.2e-9 + 5 * DEFAULT.step_width
        t = DEFAULT.transmission(wavelength_to_omega(lam), "H")
        assert t > 0.999

    def test_ten_ninety_width(self):
        half = DEFAULT.step_width / 2
        t_lo = DEFAULT.transmission(wavelength_to_omega(1535.2e-9 - half), "H")
        t_hi = DEFAULT.transmission(wavelength_to_omega(1535.2e-9 + half), "H")
        assert t_lo == pytest.approx(0.1, abs=1e-9)
        assert t_hi == pytest.approx(0.9, abs=1e-9)

    def test_transmit_short_sense(self):
        resp = SplitterResponse(transmit_long=False)
        lam = 1535.2e-9 - 5 * resp.step_width
        t = resp.transmission(wavelength_to_omega(lam), "H")
        assert t > 0.999

    @settings(deadline=None)
    @given(wavelengths)
    def test_energy_conservation_exact(self, lam):
        """R = 1 - T exactly, on a grid centred anywhere in the band."""
        curves = sample_on_grid(DEFAULT, FrequencyGrid.centered(lam, 10e-9, n=8))
        assert np.all(curves.t_h + curves.r_h == 1.0)
        assert np.all(curves.t_v + curves.r_v == 1.0)

    @settings(deadline=None)
    @given(wavelengths, wavelengths)
    def test_monotone_in_wavelength(self, lam_a, lam_b):
        lo, hi = sorted((lam_a, lam_b))
        t_lo = DEFAULT.transmission(wavelength_to_omega(lo), "H")
        t_hi = DEFAULT.transmission(wavelength_to_omega(hi), "H")
        assert t_lo <= t_hi

    @given(wavelengths)
    def test_equal_edges_are_polarization_symmetric(self, lam):
        omega = wavelength_to_omega(lam)
        assert DEFAULT.transmission(omega, "H") == DEFAULT.transmission(
            omega, "V"
        )

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(DomainError):
            DEFAULT.transmission(0.0, "H")

    def test_rejects_unknown_polarization(self):
        with pytest.raises(DomainError):
            DEFAULT.transmission(wavelength_to_omega(1535.2e-9), "X")


class TestValidation:
    def test_rejects_nonpositive_edge(self):
        with pytest.raises(DomainError):
            SplitterResponse(edge_wavelength_h=0.0)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            SplitterResponse(step_width=0.0)

    def test_rejects_bad_table(self):
        with pytest.raises(DomainError):
            SplitterResponse(table_h=np.array([[1535e-9, 1.5], [1536e-9, 0.2]]))

    def test_rejects_unsorted_table(self):
        with pytest.raises(DomainError):
            SplitterResponse(table_h=np.array([[1536e-9, 0.2], [1535e-9, 0.8]]))


class TestSampleOnGrid:
    def test_flat_limit(self):
        resp = SplitterResponse(step_width=1.0)  # edge much wider than grid
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=16)
        curves = sample_on_grid(resp, grid)
        assert np.allclose(curves.t_h, 0.5, atol=1e-6)
        assert np.allclose(curves.t_v, 0.5, atol=1e-6)

    def test_monotone_curves(self):
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=64)
        curves = sample_on_grid(DEFAULT, grid)
        # transmit-long: T decreases with omega on each axis
        assert np.all(np.diff(curves.t_h) <= 0)
        assert np.all(np.diff(curves.t_v) <= 0)

    def test_complement_exact(self):
        grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n=64)
        curves = sample_on_grid(DEFAULT, grid)
        assert np.all(curves.t_h + curves.r_h == 1.0)
        assert np.all(curves.t_v + curves.r_v == 1.0)


class TestTransmissionTable:
    def test_table_overrides_logistic(self):
        table = np.array([[1500e-9, 0.2], [1570e-9, 0.8]])
        resp = SplitterResponse(table_h=table)
        omega = wavelength_to_omega(1535e-9)
        expected = np.interp(1535e-9, table[:, 0], table[:, 1])
        assert resp.transmission(omega, "H") == pytest.approx(expected)
        # V still uses the logistic edge
        assert resp.transmission(
            wavelength_to_omega(1535.2e-9), "V"
        ) == pytest.approx(0.5, abs=1e-12)

    def test_read_table(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# lambda_nm T\n1500.0 0.1\n1570.0 0.9\n")
        table = read_transmission_table(path)
        assert table.shape == (2, 2)
        assert table[0, 0] == pytest.approx(1500e-9)
        assert table[1, 1] == 0.9

    def test_read_table_rejects_bad_row(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1500.0 0.1 7\n1570.0 0.9\n")
        with pytest.raises(FormatError):
            read_transmission_table(path)

    @pytest.mark.parametrize(
        "text, message",
        [("1500.0 0.1\n1535.0 nan\n1570.0 0.9\n", "values must be finite"),
         ("1570.0 0.9\n1500.0 0.1\n", "wavelengths must be increasing"),
         ("1500.0 0.1\n1500.0 0.9\n", "wavelengths must be increasing"),
         ("1500.0 0.1\n1570.0 1.5\n", r"transmissions must lie in \[0, 1\]")],
        ids=["nan-value", "unsorted", "repeated", "above-one"],
    )
    def test_read_table_rejects_bad_values(self, tmp_path, text, message):
        path = tmp_path / "table.txt"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            read_transmission_table(path)

    def test_read_table_rejects_single_row(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1500.0 0.1\n")
        with pytest.raises(FormatError):
            read_transmission_table(path)
