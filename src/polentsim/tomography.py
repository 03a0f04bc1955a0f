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

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    FormatError,
    UndefinedVisibilityError,
    decode_errors_as,
)
from .jointstate import PolarizationDensityMatrix

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

#: Complementary partner within each analysis basis.
_PARTNER = {"H": "V", "V": "H", "Dp": "Dm", "Dm": "Dp", "R": "L", "L": "R"}

_FAMILIES = {"HV": ("H", "V"), "DD": ("Dp", "Dm"), "RL": ("R", "L")}

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


def projector_stack() -> np.ndarray:
    """All 36 projectors as a read-only (36, 4, 4) array in canonical order."""
    return _PROJECTORS


def projection_probabilities(rho) -> np.ndarray:
    """Tr(P_nu rho) for every projection, canonical order."""
    rho = rho.elements if isinstance(rho, PolarizationDensityMatrix) else rho
    return np.real(np.einsum("nij,ji->n", _PROJECTORS, rho))


@dataclass(frozen=True)
class CountRecord:
    """One projection setting with its raw counts."""

    basis_a: str
    basis_b: str
    coincidences: int
    singles_a: int
    singles_b: int
    accidentals: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "basis_a", canonical_label(self.basis_a))
        object.__setattr__(self, "basis_b", canonical_label(self.basis_b))
        for name in ("coincidences", "singles_a", "singles_b"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be non-negative")
        if self.accidentals < 0:
            raise DomainError("accidentals must be non-negative")


@dataclass(frozen=True)
class CountTable:
    """All 36 projection records plus acquisition parameters."""

    records: tuple
    acquisition_time: float = 120.0
    gate_rate: float = 1.9e6

    def __post_init__(self):
        for name in ("acquisition_time", "gate_rate"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be positive and finite")
        recs = tuple(self.records)
        pairs = [(r.basis_a, r.basis_b) for r in recs]
        missing = [p for p in PROJECTION_PAIRS if p not in pairs]
        if missing:
            raise FormatError(
                f"count table missing projection {missing[0][0]},{missing[0][1]}"
            )
        if len(recs) != 36:
            raise FormatError("count table must hold exactly 36 records")
        # store canonically ordered
        by_pair = {(r.basis_a, r.basis_b): r for r in recs}
        object.__setattr__(
            self, "records", tuple(by_pair[p] for p in PROJECTION_PAIRS)
        )

    def coincidence_array(self) -> np.ndarray:
        return np.array([r.coincidences for r in self.records], dtype=float)

    def accidental_array(self) -> np.ndarray:
        return np.array([r.accidentals for r in self.records], dtype=float)

    def get(self, basis_a: str, basis_b: str) -> CountRecord:
        return self.records[
            _PAIR_INDEX[(canonical_label(basis_a), canonical_label(basis_b))]
        ]


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
    records = [
        CountRecord(
            basis_a=a,
            basis_b=b,
            coincidences=int(coincidences[k]),
            singles_a=int(singles[k, 0]),
            singles_b=int(singles[k, 1]),
        )
        for k, (a, b) in enumerate(PROJECTION_PAIRS)
    ]
    return CountTable(
        records=tuple(records),
        acquisition_time=acquisition_time,
        gate_rate=gate_rate,
    )


def estimate_accidentals(
    record: CountRecord, gate_rate: float, acquisition_time: float
) -> float:
    """Accidental coincidences expected from uncorrelated singles."""
    if gate_rate <= 0:
        raise DomainError("gate rate must be positive")
    return record.singles_a * record.singles_b / (gate_rate * acquisition_time)


def attach_accidentals(table: CountTable) -> CountTable:
    """Fill every record's accidental estimate from its singles."""
    records = tuple(
        replace(
            r,
            accidentals=estimate_accidentals(
                r, table.gate_rate, table.acquisition_time
            ),
        )
        for r in table.records
    )
    return replace(table, records=records)


def subtract_accidentals(table: CountTable) -> np.ndarray:
    """Per-projection coincidences minus accidentals, clamped at zero."""
    return np.maximum(0.0, table.coincidence_array() - table.accidental_array())


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

    Uses the family's four corrected projection values; the reported value
    pairs the maximal record with its complementary partner.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown basis family {family!r}")
    labels = _FAMILIES[family]
    values = np.asarray(corrected, dtype=float)
    if values.shape != (36,):
        raise DomainError("need 36 corrected projection values")
    quad = {
        (a, b): values[_PAIR_INDEX[a, b]]
        for a in labels
        for b in labels
    }
    if all(v == 0 for v in quad.values()):
        raise UndefinedVisibilityError(f"family {family} has no counts")
    (a_max, b_max), n_max = max(quad.items(), key=lambda kv: kv[1])
    n_min = quad[(a_max, _PARTNER[b_max])]
    return float((n_max - n_min) / (n_max + n_min))


def mix_background(rho, background: float) -> PolarizationDensityMatrix:
    """Blend a uniform diagonal background into the state.

    ``background`` is the weight per diagonal element: the result is
    (1 - 4b) rho + b I.
    """
    if not 0.0 <= background <= 0.25:
        raise DomainError("background weight must lie in [0, 0.25]")
    base = rho.elements if isinstance(rho, PolarizationDensityMatrix) else rho
    mixed = (1.0 - 4.0 * background) * base + background * np.eye(4)
    return PolarizationDensityMatrix(mixed)


def write_count_table(path, table: CountTable) -> None:
    """Write the count-table file (also the import format for real data)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# %.17g %.17g\n" % (table.acquisition_time, table.gate_rate))
        for r in table.records:
            fh.write(
                "%s %s %d %d %d\n"
                % (r.basis_a, r.basis_b, r.coincidences, r.singles_a, r.singles_b)
            )


def read_count_table(path) -> CountTable:
    """Read a count table; every projection pair must appear exactly once."""
    records = []
    acquisition_time = gate_rate = None
    seen = set()
    with open(path, "r", encoding="utf-8") as fh, decode_errors_as(FormatError, path):
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if acquisition_time is None:
                    if len(parts) != 2:
                        raise FormatError(
                            f"{path}:{lineno}: header needs acquisition_s gate_rate_hz"
                        )
                    try:
                        acquisition_time, gate_rate = map(float, parts)
                    except ValueError as exc:
                        raise FormatError(f"{path}:{lineno}: {exc}") from exc
                    header = (acquisition_time, gate_rate)
                    if not all(np.isfinite(v) and v > 0 for v in header):
                        raise FormatError(
                            f"{path}:{lineno}: acquisition time and gate rate "
                            "must be positive and finite"
                        )
                continue
            parts = line.split()
            if len(parts) != 5:
                raise FormatError(
                    f"{path}:{lineno}: expected 'basisA basisB coincidences "
                    "singlesA singlesB'"
                )
            try:
                rec = CountRecord(
                    basis_a=parts[0],
                    basis_b=parts[1],
                    coincidences=int(parts[2]),
                    singles_a=int(parts[3]),
                    singles_b=int(parts[4]),
                )
            except (ValueError, DomainError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            key = (rec.basis_a, rec.basis_b)
            if key in seen:
                raise FormatError(
                    f"{path}:{lineno}: duplicate projection {key[0]},{key[1]}"
                )
            seen.add(key)
            records.append(rec)
    if acquisition_time is None:
        raise FormatError(f"{path}: missing header line")
    missing = [p for p in PROJECTION_PAIRS if p not in seen]
    if missing:
        raise FormatError(
            f"{path}: missing projection {missing[0][0]},{missing[0][1]}"
        )
    return CountTable(
        records=tuple(records),
        acquisition_time=acquisition_time,
        gate_rate=gate_rate,
    )
