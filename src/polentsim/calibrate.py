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


_RTOL = 4 * math.ulp(1.0)  # brentq's relative tolerance, 4 eps


def _brent_root(f, a, b, args=(), xtol=2e-12, maxiter=100):
    """Root of ``f(x, *args)`` in [a, b] by Brent's method.

    The steps and the floating-point arithmetic of the ``brentq`` C routine
    (``Zeros/brentq.c``), so its roots are reproduced bit for bit: secant
    interpolation or inverse quadratic extrapolation when the step is
    short enough, bisection otherwise.  Brent, *Algorithms for
    Minimization Without Derivatives* (1973), ch. 4.
    """
    if not xtol > 0:
        raise DomainError(f"root tolerance must be positive, got {xtol!r}")

    def value(x):
        fx = float(f(x, *args))
        if math.isnan(fx):
            raise DomainError(f"root function is NaN at x={x!r}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise UnidentifiableFitError(
            "root function has the same sign at both ends of the bracket"
        )
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(
        f"root search did not converge in {maxiter} iterations", best=xcur
    )


def _alpha_excess(split, power, template, grid, target_alpha):
    """alpha of the edge separation ``split`` minus the target weight.

    Module-level with its data passed as arguments, so the root search
    holds the grids only through ``args`` and frees them on return.
    """
    curves = sample_on_grid(split_edges(template, split), grid)
    alpha, _, _ = _cross_path_weights(power, curves, grid.cell)
    return alpha - target_alpha


#: Edge separations (m) searched by :func:`fit_edge_split`, and the root
#: tolerance (m) of the search.
_SPLIT_BRACKET = (-10e-9, 10e-9)
_SPLIT_TOL = 1e-13


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
    UnidentifiableFitError.
    """
    args = (_power(jsa.amplitude), template, jsa.grid, target_alpha)
    split = _brent_root(_alpha_excess, *_SPLIT_BRACKET, args, xtol=_SPLIT_TOL)
    return split_edges(template, split)
