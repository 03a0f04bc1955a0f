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


def _alpha_excess(split, power, template, grid, target_alpha):
    """alpha of the edge separation ``split`` minus the target weight.

    Module-level with its data passed as arguments: brentq keeps its
    wrapper of the root function in a reference cycle, which would pin a
    closure's grids until the cyclic collector ran.
    """
    curves = sample_on_grid(split_edges(template, split), grid)
    alpha, _, _ = _cross_path_weights(power, curves, grid.cell)
    return alpha - target_alpha


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
    args = (_power(jsa.amplitude), template, jsa.grid, target_alpha)
    lo, hi = bracket
    f_lo, f_hi = _alpha_excess(lo, *args), _alpha_excess(hi, *args)
    if f_lo == 0.0:
        return split_edges(template, lo)
    if f_hi == 0.0:
        return split_edges(template, hi)
    if f_lo * f_hi > 0:
        raise UnidentifiableFitError(
            "target weight not reachable within the edge-split bracket"
        )
    split = brentq(_alpha_excess, lo, hi, args=args, xtol=tol)
    return split_edges(template, split)
