"""Oracles of the two-qubit stage for the tests: the cross-path amplitudes
g and h as whole grids, and the 36 projectors built one by one.  The
package computes the same quantities without materializing them:
``post_select`` keeps the shared amplitude and the edge curves, and
``tomography`` holds its projector stack privately."""

import numpy as np

from polentsim.tomography import PROJECTION_PAIRS, projector


def cross_amplitudes(amps):
    """(g, h) of a ``PostSelectedAmplitudes``: signal transmitted and idler
    reflected, f sqrt(t_H) sqrt(r_V); signal reflected and idler
    transmitted, f sqrt(r_H) sqrt(t_V)."""
    c = amps.curves
    g = amps.amplitude * np.outer(np.sqrt(c.t_h), np.sqrt(c.r_v))
    h = amps.amplitude * np.outer(np.sqrt(c.r_h), np.sqrt(c.t_v))
    return g, h


def projector_stack() -> np.ndarray:
    """All 36 projectors as a (36, 4, 4) array in canonical order."""
    return np.array([projector(a, b) for a, b in PROJECTION_PAIRS])
