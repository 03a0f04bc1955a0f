"""Calibration helpers tying the source model to measured weights."""

from __future__ import annotations

import math
from dataclasses import replace

from .dichroic import SplitterResponse, sample_on_grid
from .errors import ConvergenceError, DomainError, UnidentifiableFitError
from .jointstate import _cross_path_weights
from .spectral import JsaGrid, _power


def split_edges(template: SplitterResponse, split: float) -> SplitterResponse:
    """Move the H and V edges apart by ``split`` around their mean."""
    center = (template.edge_wavelength_h + template.edge_wavelength_v) / 2.0
    return replace(
        template,
        edge_wavelength_h=center + split / 2.0,
        edge_wavelength_v=center - split / 2.0,
    )


#: Edge separations (m) searched by :func:`fit_edge_split`, the bracket
#: width (m) at which the search stops, and its step cap.
_SPLIT_BRACKET = (-10e-9, 10e-9)
_SPLIT_TOL = 1e-13
_SPLIT_STEPS = 100


def _illinois_root(f, a, b, args):
    """Root of ``f(x, *args)`` in [a, b]: regula falsi with the Illinois
    modification (Dowell & Jarratt, BIT 11, 168-174, 1971), each step held
    _SPLIT_TOL / 8 or more inside the bracket so that it crosses a root
    converged on from one side.  Returns the midpoint of a bracket no wider
    than _SPLIT_TOL, or an end where f is exactly 0.
    """
    f_old, f_new = f(a, *args), f(b, *args)
    if f_old == 0.0 or f_new == 0.0:
        return a if f_old == 0.0 else b
    if (f_old < 0) == (f_new < 0):
        raise UnidentifiableFitError(
            "root function has the same sign at both ends of the bracket"
        )
    old, new, kept = a, b, False
    for _ in range(_SPLIT_STEPS):
        width = abs(old - new)
        if width <= _SPLIT_TOL:
            return (old + new) / 2
        step = width * f_new / (f_new - f_old)
        step = min(max(step, _SPLIT_TOL / 8), width - _SPLIT_TOL / 8)
        x = new + math.copysign(step, old - new)
        fx = f(x, *args)
        if (fx < 0) != (f_new < 0):
            old, f_old, kept = new, f_new, False
        elif kept:  # old is kept twice running
            f_old /= 2
        else:
            kept = True
        new, f_new = x, fx
    raise ConvergenceError(
        f"root search did not converge in {_SPLIT_STEPS} steps", best=(old + new) / 2
    )


def _alpha_excess(split, power, template, grid, target_alpha):
    """alpha of the edge separation ``split`` minus the target weight.

    Module-level with its data passed as arguments, so the root search
    holds the grids only through ``args`` and frees them on return.
    """
    curves = sample_on_grid(split_edges(template, split), grid)
    alpha, _, _ = _cross_path_weights(power, curves, grid.cell)
    return alpha - target_alpha


def fit_edge_split(
    jsa: JsaGrid, template: SplitterResponse, target_alpha: float
) -> SplitterResponse:
    """Find the H-V edge separation reproducing a diagonal weight.

    A common shift of both edges leaves the weights balanced for a
    swap-symmetric pair amplitude, so the asymmetry is carried entirely
    by the per-polarization edge separation fitted here.  The weight is
    the one :func:`~polentsim.jointstate.post_select` reports, evaluated
    from |f|^2 and the two edge curves without building g and h.  A
    target that no split in _SPLIT_BRACKET reaches raises
    UnidentifiableFitError, and a non-finite one DomainError.
    """
    if not math.isfinite(target_alpha):
        raise DomainError(f"target alpha must be finite, got {target_alpha!r}")
    args = (_power(jsa.amplitude), template, jsa.grid, target_alpha)
    split = _illinois_root(_alpha_excess, *_SPLIT_BRACKET, args)
    return split_edges(template, split)
