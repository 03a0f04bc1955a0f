"""Coincidence-count tomography: simulation and reconstruction.

The state is projected onto all 36 ordered pairs of the six single-qubit
polarization states.  Counts follow Poisson statistics on top of a flat
accidental rate estimated from the singles.  Reconstruction starts from
linear inversion and iterates Hradil's fixed point rho <- R rho R / Tr(R rho R),
with R = sum_k f_k P_k / Tr(P_k rho) over the observed count fractions f_k.
The 36 projectors sum to 9 I, so the fixed point is the Poisson
maximum-likelihood state and every iterate is physical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    FormatError,
    UndefinedVisibilityError,
    fault_of,
    read_rows,
)
from .jointstate import PolarizationDensityMatrix, _as_matrix

_SQ2 = np.sqrt(2.0)

#: Single-qubit analysis states, label -> ket over (H, V).
BASIS_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "Dp": np.array([1.0, 1.0], dtype=complex) / _SQ2,
    "Dm": np.array([1.0, -1.0], dtype=complex) / _SQ2,
    "R": np.array([1.0, 1j], dtype=complex) / _SQ2,
    "L": np.array([1.0, -1j], dtype=complex) / _SQ2,
}

_LABEL_ALIASES = {"D+": "Dp", "D-": "Dm"}

BASIS_ORDER = ("H", "V", "Dp", "Dm", "R", "L")

#: Canonical ordering of the 36 projection settings.
PROJECTION_PAIRS = tuple((a, b) for a in BASIS_ORDER for b in BASIS_ORDER)

_PAIR_INDEX = {pair: k for k, pair in enumerate(PROJECTION_PAIRS)}

#: Each analysis-basis family's rows and columns of the 6 x 6 settings.
_FAMILIES = {"HV": slice(0, 2), "DD": slice(2, 4), "RL": slice(4, 6)}

#: Step cap and relative likelihood-gain stop of :func:`mle_reconstruct`.
_MLE_MAX_ITER = 10_000
_MLE_TOL = 1e-10


def canonical_label(label: str) -> str:
    label = _LABEL_ALIASES.get(label, label)
    if label not in BASIS_KETS:
        raise DomainError(f"unknown projection label {label!r}")
    return label


def projector(basis_a: str, basis_b: str) -> np.ndarray:
    """Rank-one projector |a><a| (x) |b><b| over (HH, HV, VH, VV)."""
    ket_a = BASIS_KETS[canonical_label(basis_a)]
    ket_b = BASIS_KETS[canonical_label(basis_b)]
    return np.kron(np.outer(ket_a, ket_a.conj()), np.outer(ket_b, ket_b.conj()))


_PROJECTORS = np.array([projector(a, b) for a, b in PROJECTION_PAIRS])
_PROJECTORS.flags.writeable = False


def projection_probabilities(rho) -> np.ndarray:
    """Tr(P_nu rho) for every projection, canonical order."""
    return np.real(np.einsum("nij,ji->n", _PROJECTORS, _as_matrix(rho)))


@dataclass(frozen=True, eq=False)
class CountTable:
    """The 36 settings' counts as read-only arrays in ``PROJECTION_PAIRS``
    order, plus the acquisition parameters.

    ``coincidences`` is int64 (36,), ``singles`` int64 (36, 2) for the two
    arms, and ``accidentals`` float (36,), zero until
    :func:`attach_accidentals` fills it.
    """

    coincidences: np.ndarray
    singles: np.ndarray
    accidentals: np.ndarray = field(default_factory=lambda: np.zeros(36))
    acquisition_time: float = 120.0
    gate_rate: float = 1.9e6

    def __post_init__(self):
        for name in ("acquisition_time", "gate_rate"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite")
        for name, dtype, shape in (
            ("coincidences", np.int64, (36,)),
            ("singles", np.int64, (36, 2)),
            ("accidentals", np.float64, (36,)),
        ):
            array = np.array(getattr(self, name))
            if array.shape != shape or not np.can_cast(array.dtype, dtype, "same_kind"):
                raise DomainError(f"{name} must be a {shape} array of {dtype.__name__}")
            array = array.astype(dtype, copy=False)
            if not np.all((array >= 0) & np.isfinite(array)):
                raise DomainError(f"{name} must be finite and non-negative")
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def expected_rates(
    rho,
    pair_rate: float,
    accidental_rate: float,
    acquisition_time: float = 120.0,
) -> np.ndarray:
    """Mean coincidence counts per projection over the acquisition time."""
    if pair_rate < 0 or accidental_rate < 0 or acquisition_time < 0:
        raise DomainError("rates and acquisition time must be non-negative")
    probs = projection_probabilities(rho)
    with np.errstate(over="ignore"):
        means = acquisition_time * (pair_rate * probs + accidental_rate)
    if not np.all(np.isfinite(means)):
        raise DomainError("expected counts are not finite")
    return means


def calibrate_pair_rate(rho, target_cross_rate: float = 4.0) -> float:
    """Pair rate making the larger of the (H,V)/(V,H) rates hit the target."""
    probs = projection_probabilities(rho)
    peak = max(probs[_PAIR_INDEX["H", "V"]], probs[_PAIR_INDEX["V", "H"]])
    if peak <= 0:
        raise DomainError("state has no cross-polarized coincidence probability")
    with np.errstate(over="ignore"):
        pair_rate = target_cross_rate / peak
    if not np.isfinite(pair_rate):
        raise DomainError("calibrated pair rate is not finite")
    return pair_rate


def sample_counts(
    means,
    seed: int,
    acquisition_time: float = 120.0,
    gate_rate: float = 1.9e6,
    singles_rate: float = 870.0,
) -> CountTable:
    """Draw Poisson counts for every projection with a seeded generator."""
    means = np.asarray(means, dtype=float)
    if means.shape != (36,):
        raise DomainError("need 36 per-projection means")
    if np.any(means < 0):
        raise DomainError("means must be non-negative")
    if singles_rate < 0:
        raise DomainError("singles rate must be non-negative")
    rng = np.random.default_rng(seed)
    try:
        coincidences = rng.poisson(means)
        singles = rng.poisson(singles_rate * acquisition_time, size=(36, 2))
    except ValueError as exc:
        raise DomainError(f"cannot draw Poisson counts: {exc}") from exc
    return CountTable(
        coincidences=coincidences,
        singles=singles,
        acquisition_time=acquisition_time,
        gate_rate=gate_rate,
    )


def attach_accidentals(table: CountTable) -> CountTable:
    """Fill the accidentals s_a s_b / (g T) expected from uncorrelated
    singles s_a, s_b at gate rate g over acquisition time T."""
    singles = table.singles.astype(float)
    with np.errstate(all="ignore"):  # a non-finite result is rejected
        accidentals = singles[:, 0] * singles[:, 1] / (
            table.gate_rate * table.acquisition_time
        )
    return replace(table, accidentals=accidentals)


def subtract_accidentals(table: CountTable) -> np.ndarray:
    """Per-projection coincidences minus accidentals, clamped at zero."""
    return np.maximum(0.0, table.coincidences - table.accidentals)


def _dual_frame() -> np.ndarray:
    """Canonical dual of the 36 projectors: (A_k - I/3) (x) (B_k - I/3).

    For the six single-qubit states, sum_k |k><k| Tr(|k><k| X) = X + Tr(X) I,
    whose inverse is X -> X - Tr(X) I / 3; the two-qubit frame operator is
    the tensor square, so X = sum_k Tr(P_k X) Q_k for every operator X.
    """
    third = np.eye(2) / 3.0
    singles = {
        label: np.outer(ket, ket.conj()) - third for label, ket in BASIS_KETS.items()
    }
    return np.array([np.kron(singles[a], singles[b]) for a, b in PROJECTION_PAIRS])


_DUAL = _dual_frame()
_DUAL.flags.writeable = False


def linear_inversion(corrected) -> np.ndarray:
    """Least-squares inversion of the projection data by the dual frame.

    The 36 probabilities Tr(P_k rho) sum to 9, so the state is
    9 sum_k f_k Q_k with f_k the count fractions.  Returns a Hermitian,
    unit-trace matrix that may have negative eigenvalues when the data
    are noisy.
    """
    values = np.asarray(corrected, dtype=float)
    if values.shape != (36,):
        raise DomainError("need 36 corrected projection values")
    total = values.sum()
    if not total > 0:
        raise DomainError("projection data carry no counts")
    return np.tensordot(9.0 * values / total, _DUAL, axes=(0, 0))


def _physical_projection(rho: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues to a small positive floor and renormalize."""
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    vals = np.maximum(vals, 1e-6)
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.trace(rho).real


def mle_reconstruct(corrected) -> PolarizationDensityMatrix:
    """Maximum-likelihood density matrix from corrected projection counts.

    Values are clamped at 0; f_k = n_k / sum(n) over the settings with
    n_k > 0.  Starting from the eigenvalue-floored linear inversion, each
    step sets rho <- R rho R / Tr(R rho R) with R = sum_k f_k P_k / Tr(P_k rho)
    and symmetrizes.  Because the projectors sum to 9 I, the fixed point
    R rho = rho maximizes the Poisson log-likelihood sum_k f_k log Tr(P_k rho).
    The iteration stops once a step gains less than ``_MLE_TOL`` times the
    log-likelihood's magnitude; after ``_MLE_MAX_ITER`` steps without that it
    raises :class:`ConvergenceError` carrying the last iterate as ``best``.
    """
    values = np.maximum(0.0, np.asarray(corrected, dtype=float))
    if values.shape != (36,):
        raise DomainError("need 36 corrected projection values")
    if not np.any(values > 0):
        raise DomainError("need at least one positive projection value")

    observed = values > 0
    freqs = values[observed] / values.sum()
    # Tr(P_k rho) = vec(P_k) . vec(rho^T); R = sum_k w_k P_k
    flat = _PROJECTORS[observed].reshape(-1, 16)
    rho = _physical_projection(linear_inversion(values))
    probs = np.real(flat @ rho.T.ravel())
    log_l = freqs @ np.log(probs)
    for _ in range(_MLE_MAX_ITER):
        r = ((freqs / probs) @ flat).reshape(4, 4)
        rho = r @ rho @ r
        rho = (rho + rho.conj().T) / 2.0
        rho /= np.trace(rho).real
        probs = np.real(flat @ rho.T.ravel())
        previous, log_l = log_l, freqs @ np.log(probs)
        if log_l - previous <= _MLE_TOL * abs(log_l):
            return PolarizationDensityMatrix(rho)
    raise ConvergenceError(
        f"likelihood fit did not converge in {_MLE_MAX_ITER} iterations",
        best=PolarizationDensityMatrix(rho),
    )


def visibility(corrected, family: str) -> float:
    """Contrast within one analysis-basis family (HV, DD, or RL).

    Uses the family's 2 x 2 block of corrected projection values; the
    reported value pairs the first maximal setting with its complementary
    partner, the other column of the same row.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown basis family {family!r}")
    values = np.asarray(corrected, dtype=float)
    if values.shape != (36,):
        raise DomainError("need 36 corrected projection values")
    rows = _FAMILIES[family]
    quad = values.reshape(6, 6)[rows, rows].ravel().tolist()  # row-major 2 x 2
    if not any(quad):
        raise UndefinedVisibilityError(f"family {family} has no counts")
    k = quad.index(max(quad))
    n_max, n_min = quad[k], quad[k ^ 1]  # k ^ 1: the same row's other column
    return (n_max - n_min) / (n_max + n_min)


def mix_background(rho, background: float) -> PolarizationDensityMatrix:
    """Blend a uniform diagonal background into the state.

    ``background`` is the weight per diagonal element: the result is
    (1 - 4b) rho + b I.
    """
    if not 0.0 <= background <= 0.25:
        raise DomainError("background weight must lie in [0, 0.25]")
    mixed = (1.0 - 4.0 * background) * _as_matrix(rho) + background * np.eye(4)
    return PolarizationDensityMatrix(mixed)


def write_count_table(path, table: CountTable) -> None:
    """Write the count-table file (also the import format for real data)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# %.17g %.17g\n" % (table.acquisition_time, table.gate_rate))
        for (a, b), c, (s_a, s_b) in zip(
            PROJECTION_PAIRS, table.coincidences.tolist(), table.singles.tolist()
        ):
            fh.write("%s %s %d %d %d\n" % (a, b, c, s_a, s_b))


def read_count_table(path) -> CountTable:
    """Read a count table; every projection pair must appear exactly once,
    with counts in [0, 2^63 - 1]."""
    counts = np.zeros((36, 3), dtype=np.int64)  # coincidences, singles a, b
    seen = np.zeros(36, dtype=bool)
    (lineno, (acquisition_time, gate_rate)), *rows = read_rows(
        path,
        "basisA basisB coincidences singlesA singlesB",
        (str, str, int, int, int),
        header=("# acquisition_s gate_rate_hz", (float, float)),
    )
    if not (acquisition_time > 0 and gate_rate > 0):
        raise FormatError(
            f"{path}:{lineno}: acquisition time and gate rate must be positive"
        )
    # attach_accidentals' largest quotient: two singles of 2^63 - 1
    with np.errstate(all="ignore"):
        worst = np.float64(2**63 - 1) ** 2 / (gate_rate * acquisition_time)
    if not np.isfinite(worst):
        raise FormatError(
            f"{path}:{lineno}: acquisition time times gate rate "
            "is too small for finite accidentals"
        )
    for lineno, (a, b, *values) in rows:
        with fault_of(path, lineno):
            pair = (canonical_label(a), canonical_label(b))
        if not all(0 <= v < 2**63 for v in values):  # int64
            raise FormatError(f"{path}:{lineno}: counts must lie in [0, 2^63 - 1]")
        k = _PAIR_INDEX[pair]
        if seen[k]:
            raise FormatError(
                f"{path}:{lineno}: duplicate projection {pair[0]},{pair[1]}"
            )
        seen[k] = True
        counts[k] = values
    if not seen.all():
        a, b = PROJECTION_PAIRS[int(np.argmin(seen))]
        raise FormatError(f"{path}: missing projection {a},{b}")
    return CountTable(
        coincidences=counts[:, 0],
        singles=counts[:, 1:],
        acquisition_time=acquisition_time,
        gate_rate=gate_rate,
    )
