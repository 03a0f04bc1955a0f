"""Output checks applied to every op; a failed check fails that op only."""

from __future__ import annotations

import re

import numpy as np

#: brentq's edge-split tolerance (1e-13 m) times the largest measured slope
#: of alpha against the split over the drawn parameter range (1.65e7 per m),
#: rounded up.
ALPHA_TOL = 2e-6

NORM_TOL = 1e-9
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
CAUCHY_SCHWARZ_SLACK = 1e-12
NOISELESS_FIDELITY = 0.9999

NUMBER = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"


class CheckFailure(Exception):
    """An op produced an output that violates a checked property."""


def jsa(amplitude: np.ndarray, cell: float) -> None:
    """All values finite and the Riemann norm of |f|^2 equal to 1."""
    if not np.all(np.isfinite(amplitude)):
        raise CheckFailure("JSA holds non-finite values")
    norm = float(np.sum(np.abs(amplitude) ** 2) * cell)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise CheckFailure(f"JSA norm {norm!r} is not 1 within {NORM_TOL}")


def alpha_on_target(alpha: float, target: float) -> None:
    if not abs(alpha - target) <= ALPHA_TOL:
        raise CheckFailure(f"alpha {alpha!r} misses target {target!r} by more than {ALPHA_TOL}")


def coherence_bound(d, alpha, beta) -> None:
    """Cauchy-Schwarz: |D| <= sqrt(alpha * beta) for every value."""
    excess = np.abs(np.asarray(d, dtype=complex)) - np.sqrt(
        np.asarray(alpha, dtype=float) * np.asarray(beta, dtype=float)
    )
    worst = float(np.max(excess))
    if not worst <= CAUCHY_SCHWARZ_SLACK:
        raise CheckFailure(f"|D| exceeds sqrt(alpha*beta) by {worst!r}")


def state(rho: np.ndarray) -> None:
    """Hermitian, unit trace and positive semidefinite."""
    rho = np.asarray(rho, dtype=complex)
    if not np.all(np.isfinite(rho)):
        raise CheckFailure("state holds non-finite values")
    if not np.max(np.abs(rho - rho.conj().T)) <= HERMITICITY_TOL:
        raise CheckFailure("state is not Hermitian")
    trace = np.trace(rho)
    if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
        raise CheckFailure(f"state trace {trace!r} is not 1")
    lowest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if not lowest >= EIGENVALUE_FLOOR:
        raise CheckFailure(f"state has eigenvalue {lowest!r}")


def noiseless_fidelity(value: float) -> None:
    if not value > NOISELESS_FIDELITY:
        raise CheckFailure(f"noiseless reconstruction fidelity {value!r} <= {NOISELESS_FIDELITY}")


def cli_output(command: str, code: int, stdout: str, patterns) -> None:
    """Exit code 0 and exactly the documented stdout lines, in order."""
    if code != 0:
        raise CheckFailure(f"cli {command} exited with {code}")
    lines = stdout.splitlines()
    if len(lines) != len(patterns):
        raise CheckFailure(f"cli {command} printed {len(lines)} lines, expected {len(patterns)}")
    for line, pattern in zip(lines, patterns):
        if not re.fullmatch(pattern, line):
            raise CheckFailure(f"cli {command} printed {line!r}, expected /{pattern}/")


def same_bytes(path_a: str, path_b: str) -> None:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            raise CheckFailure(f"{path_a} differs from {path_b}")
