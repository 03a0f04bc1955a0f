"""Broadband polarization-entangled pair simulation and tomography.

Pipeline: a type-II down-conversion joint spectral amplitude
(:mod:`.spectral`) is split on a polarization-dependent dichroic edge
(:mod:`.dichroic`); post-selecting cross-path coincidences yields a
two-qubit polarization state whose coherence depends on the signal-idler
delay (:mod:`.jointstate`).  The state is characterized directly
(:mod:`.metrics`) or through simulated coincidence-count tomography
(:mod:`.tomography`); :mod:`.cli` wires everything to configuration
files and plot-ready tables.
"""

from .dichroic import SplitterResponse, read_transmission_table
from .errors import (
    ConfigError,
    ConvergenceError,
    DegeneratePostSelectionError,
    DomainError,
    EmptySupportError,
    FormatError,
    InvalidStateError,
    NonphysicalCoherenceError,
    ResolutionError,
    SimulationError,
    UndefinedVisibilityError,
    UnidentifiableFitError,
)
from .jointstate import (
    DegradationModel,
    DelaySweep,
    PolarizationDensityMatrix,
    PostSelectedAmplitudes,
    apply_degradation,
    d_parameter,
    delay_sweep,
    density_matrix,
    diagonal_weights,
    fit_degradation,
    post_select,
    read_density_matrix,
    sweep_at,
    uniform_delays,
    write_density_matrix,
    write_sweep,
)
from .metrics import car, concurrence, extract_d, fidelity, purity, state_report
from .spectral import (
    FrequencyGrid,
    JsaGrid,
    PdcModel,
    apply_bandpass,
    build_jsa,
    read_jsa,
    write_jsa,
)
from .tomography import (
    CountTable,
    attach_accidentals,
    calibrate_pair_rate,
    expected_rates,
    linear_inversion,
    mix_background,
    mle_reconstruct,
    projection_probabilities,
    read_count_table,
    sample_counts,
    subtract_accidentals,
    visibility,
    write_count_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
