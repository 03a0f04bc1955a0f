"""Calibration helpers tying the source model to measured weights."""

from __future__ import annotations

from dataclasses import replace

from scipy.optimize import brentq

from .dichroic import SplitterResponse, sample_on_grid
from .errors import UnidentifiableFitError
from .jointstate import _cross_path_weights, _power
from .spectral import JsaGrid


def split_edges(template: SplitterResponse, split: float) -> SplitterResponse:
    """Move the H and V edges apart by ``split`` around their mean."""
    center = (template.edge_wavelength_h + template.edge_wavelength_v) / 2.0
    return replace(
        template,
        edge_wavelength_h=center + split / 2.0,
        edge_wavelength_v=center - split / 2.0,
    )


def fit_edge_split(
    jsa: JsaGrid,
    template: SplitterResponse,
    target_alpha: float,
    bracket: tuple[float, float] = (-10e-9, 10e-9),
    tol: float = 1e-13,
) -> SplitterResponse:
    """Find the H-V edge separation reproducing a diagonal weight.

    A common shift of both edges leaves the weights balanced for a
    swap-symmetric pair amplitude, so the asymmetry is carried entirely
    by the per-polarization edge separation fitted here.  The weight is
    the one :func:`~polentsim.jointstate.post_select` reports, evaluated
    from |f|^2 and the two edge curves without building g and h.
    """
    power = _power(jsa.amplitude)

    def excess(split):
        curves = sample_on_grid(split_edges(template, split), jsa.grid)
        alpha, _, _ = _cross_path_weights(power, curves, jsa.grid.cell)
        return alpha - target_alpha

    lo, hi = bracket
    f_lo, f_hi = excess(lo), excess(hi)
    if f_lo == 0.0:
        return split_edges(template, lo)
    if f_hi == 0.0:
        return split_edges(template, hi)
    if f_lo * f_hi > 0:
        raise UnidentifiableFitError(
            "target weight not reachable within the edge-split bracket"
        )
    split = brentq(excess, lo, hi, xtol=tol)
    return split_edges(template, split)
