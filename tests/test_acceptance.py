"""Acceptance suite: ten end-to-end criteria against the measured reference data.

Each test prints a single ``criterion NN [PASS|FAIL]`` line and then
asserts.  Reference values are the published measurements of the source
this model is calibrated against; calibration targets (edge split,
degradation) are fitted, never hard-coded to the expected outputs.
"""

import numpy as np
import pytest

from polentsim import calibrate, jointstate, metrics, spectral
from polentsim.dichroic import SplitterResponse
from polentsim.jointstate import (
    DegradationModel,
    apply_degradation,
    d_parameter,
    delay_sweep,
    density_matrix,
    diagonal_weights,
    fit_degradation,
    post_select,
)
from polentsim.spectral import FrequencyGrid, JsaGrid, PdcModel, build_jsa
from polentsim.tomography import (
    CountTable,
    attach_accidentals,
    calibrate_pair_rate,
    expected_rates,
    mix_background,
    mle_reconstruct,
    projection_probabilities,
    sample_counts,
    subtract_accidentals,
    visibility,
)

from test_jointstate import loop_reference, random_jsa, random_splitter

# --- measured reference data -------------------------------------------------

# complex coherence at the three evaluated delays (s)
D_MEASURED = {
    0.0: 0.243 + 0.259j,
    25.9e-15: 0.361 + 0.132j,
    -25.9e-15: 0.097 + 0.242j,
}
# per-quadrature standard uncertainties (re, im), same delay order
D_SIGMA = {
    0.0: (0.013, 0.012),
    25.9e-15: (0.012, 0.013),
    -25.9e-15: (0.015, 0.014),
}
# independently tabulated concurrences with their uncertainty
CONCURRENCE_TABLE = {0.0: 0.70, 25.9e-15: 0.75, -25.9e-15: 0.50}
CONCURRENCE_SIGMA = 0.03

ALPHA_MEASURED, BETA_MEASURED = 0.52, 0.43
D_ABS_MEASURED = 0.384
PURITY_TABLE, PURITY_SIGMA = 0.80, 0.02

COINC_RATE, SINGLES_RATE, GATE_RATE = 4.0, 870.0, 1.9e6
CAR_REPORTED = 9.5

VISIBILITY_MEASURED = {"HV": 0.78, "DD": 0.68, "RL": 0.68}

ACQUISITION = 120.0
BACKGROUND = 0.0125


def _report(number, ok, label, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{status}] {label}{suffix}")


# --- shared calibrated pipeline ---------------------------------------------

_CACHE = {}


def calibrated_pipeline():
    """Default 512-point model with the dichroic edge split fitted so the
    diagonal weights reproduce the measured ratio."""
    if "amps" not in _CACHE:
        jsa = build_jsa(PdcModel(), FrequencyGrid.centered(1535.2e-9, 40e-9, 512))
        target = ALPHA_MEASURED / (ALPHA_MEASURED + BETA_MEASURED)
        splitter = calibrate.fit_edge_split(jsa, SplitterResponse(), target)
        amps = post_select(jsa, splitter)
        _CACHE["amps"] = amps
        _CACHE["sweep"] = delay_sweep(amps, -400e-15, 400e-15, 1601)
        _CACHE["fit"] = fit_degradation(
            _CACHE["sweep"], list(D_MEASURED.items())
        )
    return _CACHE


def coherence_residual():
    """Largest quadrature residual of the degraded sweep, interpolated at
    the measured delays, against the measured coherences (criterion 04)."""
    pipe = calibrated_pipeline()
    if "residual" not in pipe:
        degraded, _ = apply_degradation(pipe["sweep"], pipe["fit"])
        worst = 0.0
        for tau, observed in D_MEASURED.items():
            predicted = np.interp(tau, degraded.tau, degraded.d.real) + 1j * np.interp(
                tau, degraded.tau, degraded.d.imag
            )
            worst = max(
                worst,
                abs(predicted.real - observed.real),
                abs(predicted.imag - observed.imag),
            )
        pipe["residual"] = worst
    return pipe["residual"]


def tomography_medians():
    """(median fidelity, median visibility per family) of 100 seeded
    Poisson count tables of the degraded model state at 25.9 fs
    (criterion 08)."""
    pipe = calibrated_pipeline()
    if "tomography" not in pipe:
        amps = pipe["amps"]
        alpha, beta = diagonal_weights(amps)
        d = d_parameter(amps, 25.9e-15, pipe["fit"])
        truth = mix_background(density_matrix(alpha, beta, d), BACKGROUND)

        pair_rate = calibrate_pair_rate(truth, COINC_RATE)
        accidental_rate = SINGLES_RATE**2 / GATE_RATE
        means = expected_rates(truth, pair_rate, accidental_rate, ACQUISITION)

        fidelities, vis = [], {"HV": [], "DD": [], "RL": []}
        for seed in range(100):
            table = attach_accidentals(
                sample_counts(means, seed=seed, acquisition_time=ACQUISITION,
                              gate_rate=GATE_RATE, singles_rate=SINGLES_RATE)
            )
            corrected = subtract_accidentals(table)
            est = mle_reconstruct(corrected)
            fidelities.append(metrics.fidelity(est, truth))
            for family in vis:
                vis[family].append(visibility(corrected, family))
        pipe["tomography"] = (
            float(np.median(fidelities)),
            {k: float(np.median(v)) for k, v in vis.items()},
        )
    return pipe["tomography"]


# --- criteria ----------------------------------------------------------------


def test_criterion_01_concurrence_coherence_consistency():
    """Embedding each measured coherence in the two-term state form yields
    a concurrence of twice its magnitude, consistent with the separately
    tabulated concurrences within two combined standard uncertainties."""
    alpha = ALPHA_MEASURED / (ALPHA_MEASURED + BETA_MEASURED)
    details, ok = [], True
    for tau, d in D_MEASURED.items():
        rho = density_matrix(alpha, 1 - alpha, d)
        conc = metrics.concurrence(rho)
        assert conc == pytest.approx(2 * abs(d), abs=1e-12)
        s_re, s_im = D_SIGMA[tau]
        sigma_abs = np.hypot(d.real * s_re, d.imag * s_im) / abs(d)
        combined = np.hypot(2 * sigma_abs, CONCURRENCE_SIGMA)
        gap = abs(conc - CONCURRENCE_TABLE[tau])
        ok &= gap <= 2 * combined
        details.append(f"{conc:.3f} vs {CONCURRENCE_TABLE[tau]:.2f}")
    _report(1, ok, "concurrence matches tabulated values", ", ".join(details))
    assert ok


def test_criterion_02_purity_identity():
    """alpha^2 + beta^2 + 2|D|^2 with the measured weights and coherence
    magnitude gives 0.75; the independently tabulated purity is within
    0.07 (the diagonal background this identity omits)."""
    value = ALPHA_MEASURED**2 + BETA_MEASURED**2 + 2 * D_ABS_MEASURED**2
    ok = abs(value - 0.75) < 5e-3 and abs(value - PURITY_TABLE) <= 0.07
    _report(2, ok, "purity identity", f"identity {value:.4f}, table {PURITY_TABLE}")
    assert value == pytest.approx(0.75, abs=5e-3)
    assert abs(value - PURITY_TABLE) <= 0.07


def test_criterion_03_car_arithmetic():
    """4/s coincidences over 870/s singles per arm at a 1.9 MHz gate give
    a coincidences-to-accidentals ratio of 10.0, within 10% of the
    reported 9.5."""
    table = attach_accidentals(
        CountTable(
            coincidences=np.full(36, int(COINC_RATE * ACQUISITION)),
            singles=np.full((36, 2), int(SINGLES_RATE * ACQUISITION)),
            acquisition_time=ACQUISITION,
            gate_rate=GATE_RATE,
        )
    )
    ratio = metrics.car(table)
    ok = abs(ratio - 10.0) < 0.1 and abs(ratio / CAR_REPORTED - 1) < 0.10
    _report(3, ok, "accidentals arithmetic", f"CAR {ratio:.2f}")
    assert ratio == pytest.approx(10.0, abs=0.1)
    assert abs(ratio / CAR_REPORTED - 1) < 0.10


def test_criterion_04_calibrated_coherence_reproduction():
    """Calibrated model plus fitted two-parameter degradation reproduces
    the three measured complex coherences within 0.015 per quadrature."""
    worst = coherence_residual()
    ok = worst < 0.015
    _report(
        4,
        ok,
        "degraded model reproduces measured coherences",
        f"max quadrature residual {worst:.3f}, tolerance 0.015",
    )
    assert worst < 0.015, (
        "the fitted scale-and-shift degradation cannot pull the model's "
        "coherence envelope onto all three measured points at once; "
        f"best achievable residual here is {worst:.3f}"
    )


def test_criterion_05_phase_linearity():
    """Simulated coherence phase is linear in delay around the peak
    (R^2 > 0.999) and the measured phases sit within 0.1 rad of that
    line after a constant-offset calibration."""
    pipe = calibrated_pipeline()
    sweep = pipe["sweep"]
    peak = sweep.tau[np.argmax(np.abs(sweep.d))]
    window = np.abs(sweep.tau - peak) <= 100e-15
    tau_fs = sweep.tau[window] * 1e15
    phase = sweep.phase[window]
    slope, intercept = np.polyfit(tau_fs, phase, 1)
    fitted = slope * tau_fs + intercept
    ss_res = np.sum((phase - fitted) ** 2)
    ss_tot = np.sum((phase - phase.mean()) ** 2)
    r2 = 1 - ss_res / ss_tot

    obs_tau = np.array(sorted(D_MEASURED))
    obs_phase = np.unwrap([np.angle(D_MEASURED[t]) for t in obs_tau])
    line = slope * obs_tau * 1e15 + intercept
    offset = np.mean(obs_phase - line)
    deviation = np.max(np.abs(obs_phase - line - offset))

    ok = r2 > 0.999 and deviation < 0.1
    _report(
        5, ok, "phase linear in delay",
        f"R^2 {r2:.6f}, max measured deviation {deviation:.3f} rad",
    )
    assert r2 > 0.999
    assert deviation < 0.1


def test_criterion_06_purity_collapse():
    """Undegraded purity exceeds 0.9 at its peak and falls below 0.55 at
    400 fs on either side of the peak."""
    pipe = calibrated_pipeline()
    amps = pipe["amps"]
    sweep = pipe["sweep"]
    peak_tau = sweep.tau[np.argmax(sweep.purity)]
    peak = sweep.purity.max()
    alpha, beta = sweep.alpha, sweep.beta
    far = max(
        alpha**2
        + beta**2
        + 2 * abs(d_parameter(amps, peak_tau + s * 400e-15)) ** 2
        for s in (-1, 1)
    )
    ok = peak > 0.9 and far < 0.55
    _report(6, ok, "purity collapse", f"peak {peak:.3f}, at +/-400 fs {far:.3f}")
    assert peak > 0.9
    assert far < 0.55


def test_criterion_07_tomography_noiseless_round_trip():
    """Expected counts of 50 random physical states reconstruct with
    fidelity above 0.9999 each."""
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho = jointstate.PolarizationDensityMatrix(rho / np.trace(rho).real)
        values = 480.0 * projection_probabilities(rho)
        est = mle_reconstruct(values)
        worst = min(worst, metrics.fidelity(est, rho))
    ok = worst > 0.9999
    _report(7, ok, "noiseless tomography round-trip", f"worst fidelity {worst:.6f}")
    assert worst > 0.9999


def test_criterion_08_tomography_with_counting_statistics():
    """Poisson-level reconstruction of the degraded model state: median
    fidelity above 0.98 over 100 seeds, and corrected-count visibilities
    matching the measured 0.78/0.68/0.68 within 0.05."""
    median_f, vis_median = tomography_medians()
    vis_ok = {
        k: abs(vis_median[k] - VISIBILITY_MEASURED[k]) < 0.05 for k in vis_median
    }
    ok = median_f > 0.98 and all(vis_ok.values())
    _report(
        8, ok, "tomography at measured counting statistics",
        f"median fidelity {median_f:.4f}; visibilities "
        + ", ".join(f"{k} {vis_median[k]:.3f}" for k in ("HV", "DD", "RL")),
    )
    assert median_f > 0.98
    for family in ("HV", "DD", "RL"):
        assert abs(vis_median[family] - VISIBILITY_MEASURED[family]) < 0.05, (
            f"{family} visibility {vis_median[family]:.3f} vs measured "
            f"{VISIBILITY_MEASURED[family]}: accidental-corrected counts of "
            "the background-mixed model state cannot reproduce all three "
            "measured visibilities under a single counting convention"
        )


def test_criterion_09_oracle_equivalence():
    """The vectorized pipeline equals a scalar-loop evaluation of the
    discrete weights and coherence within 1e-12 on random 8x8 inputs."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        jsa = random_jsa(rng)
        splitter = random_splitter(rng)
        tau = float(rng.uniform(-300e-15, 300e-15))
        amps = post_select(jsa, splitter)
        alpha, beta = diagonal_weights(amps)
        d = d_parameter(amps, tau)
        ref_a, ref_b, ref_d = loop_reference(jsa, splitter, tau)
        worst = max(worst, abs(alpha - ref_a), abs(beta - ref_b), abs(d - ref_d))
    ok = worst < 1e-12
    _report(9, ok, "scalar-loop oracle equivalence", f"max deviation {worst:.2e}")
    assert worst < 1e-12


def test_criterion_10_invariant_suite():
    """Cauchy-Schwarz on 1000 random instances, density-matrix structure,
    fidelity symmetry/unitary invariance, zero concurrence on product
    states, and unit norm of every constructed amplitude grid."""
    rng = np.random.default_rng(7)
    ok = True

    for _ in range(1000):
        amps = post_select(random_jsa(rng), random_splitter(rng))
        alpha, beta = diagonal_weights(amps)
        d = d_parameter(amps, float(rng.uniform(-500e-15, 500e-15)))
        ok &= abs(d) <= np.sqrt(alpha * beta) + 1e-12
        rho = density_matrix(alpha, beta, d).elements
        ok &= np.allclose(rho, rho.conj().T)
        ok &= abs(np.trace(rho).real - 1) < 1e-12
        ok &= np.linalg.eigvalsh(rho).min() >= -1e-10

    def rand_state():
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        return m / np.trace(m).real

    for _ in range(25):
        a, b = rand_state(), rand_state()
        ok &= abs(metrics.fidelity(a, b) - metrics.fidelity(b, a)) < 1e-9
        q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        ok &= abs(
            metrics.fidelity(u @ a @ u.conj().T, u @ b @ u.conj().T)
            - metrics.fidelity(a, b)
        ) < 1e-9

    for _ in range(25):
        def qubit():
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            return v / np.linalg.norm(v)
        psi = np.kron(qubit(), qubit())
        ok &= metrics.concurrence(np.outer(psi, psi.conj())) < 1e-8

    model = PdcModel()
    for grid_n in (256, 384):
        jsa = build_jsa(model, FrequencyGrid.centered(1535.2e-9, 40e-9, grid_n))
        ok &= abs(jsa.norm() - 1) < 1e-9
        filtered = spectral.apply_bandpass(jsa, 1535.2e-9, 20e-9)
        ok &= abs(filtered.norm() - 1) < 1e-9
    for _ in range(20):
        ok &= abs(random_jsa(rng).norm() - 1) < 1e-9

    _report(10, ok, "invariant suite")
    assert ok
