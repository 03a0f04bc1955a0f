"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``setup``; ``op(i)`` then
runs one unit of work and checks its outputs, raising on any failure.
Every package call goes through a module attribute (``spectral.build_jsa``),
so that a traced phase can wrap it (see ``tracing.py``).
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import statistics
from dataclasses import dataclass

import numpy as np

from polentsim import calibrate, cli, jointstate, metrics, spectral, tomography
from polentsim.dichroic import SplitterResponse
from polentsim.spectral import FrequencyGrid, PdcModel

from . import checks

# Measured reference data of the source, as in the acceptance criteria.
MEASURED_D = (
    (0.0, 0.243 + 0.259j),
    (25.9e-15, 0.361 + 0.132j),
    (-25.9e-15, 0.097 + 0.242j),
)
ALPHA_TARGET = 0.52 / (0.52 + 0.43)
BACKGROUND = 0.0125
COINC_RATE, SINGLES_RATE, GATE_RATE, ACQUISITION = 4.0, 870.0, 1.9e6, 120.0

FILTER_CENTER, GRID_WIDTH = 1535.2e-9, 40e-9
SWEEP = (-400e-15, 400e-15, 1601)
FAMILIES = ("HV", "DD", "RL")

#: Length of the seeded input schedules; ops cycle through them.
SCHEDULE = 4096


def _no_span(name):
    return contextlib.nullcontext()


@dataclass(frozen=True)
class Reference:
    """The default 512-point model calibrated to the measured weights."""

    amps: jointstate.PostSelectedAmplitudes
    splitter: SplitterResponse
    alpha: float
    beta: float
    sweep: jointstate.DelaySweep
    fit: jointstate.DegradationModel

    def degraded_d(self, tau: float) -> complex:
        return self.fit.amplitude_scale * jointstate.d_parameter(
            self.amps, tau - self.fit.time_offset
        )


def calibrate_reference() -> Reference:
    """The calibrated pipeline of acceptance criteria 04 and 08."""
    jsa = spectral.build_jsa(PdcModel(), FrequencyGrid.centered(FILTER_CENTER, GRID_WIDTH, 512))
    splitter = calibrate.fit_edge_split(jsa, SplitterResponse(), ALPHA_TARGET)
    amps = jointstate.post_select(jsa, splitter)
    alpha, beta = jointstate.diagonal_weights(amps)
    sweep = jointstate.delay_sweep(amps, *SWEEP)
    fit = jointstate.fit_degradation(sweep, MEASURED_D)
    return Reference(amps, splitter, alpha, beta, sweep, fit)


def reference_results(ref: Reference) -> list:
    """alpha, beta, degraded D at the measured delays, the fit and the
    criterion-04 residual (red by design: reported, never checked)."""
    degraded, _ = jointstate.apply_degradation(ref.sweep, ref.fit)
    out = [("alpha", ref.alpha), ("beta", ref.beta)]
    worst = 0.0
    for tau, observed in MEASURED_D:
        d = ref.degraded_d(tau)
        out += [(f"D_{tau * 1e15:g}fs.re", d.real), (f"D_{tau * 1e15:g}fs.im", d.imag)]
        predicted = np.interp(tau, degraded.tau, degraded.d.real) + 1j * np.interp(
            tau, degraded.tau, degraded.d.imag
        )
        worst = max(worst, float(abs(predicted.real - observed.real)),
                    float(abs(predicted.imag - observed.imag)))
    out += [
        ("degrade_scale", ref.fit.amplitude_scale),
        ("degrade_offset_fs", ref.fit.time_offset * 1e15),
        ("criterion04_residual", worst),
    ]
    return out


class Workload:
    """Inputs drawn from ``seed``; files only under ``work_dir``."""

    name = ""
    grid_points = 0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        #: Opens a named span; a traced phase replaces it with the tracer's.
        self.span = _no_span

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Once, after the timed set-up: reference outputs for the checks."""

    def op_kind(self, i: int) -> str:
        return self.name

    def op(self, i: int) -> None:
        raise NotImplementedError

    def results(self) -> list:
        """(name, value) pairs reported next to the timings, never checked."""
        raise NotImplementedError


@dataclass(frozen=True)
class Draw:
    model: PdcModel
    edge_width: float
    target_alpha: float


class ModelCalibrate(Workload):
    """Build, filter, calibrate and characterize a freshly drawn source."""

    name = "model-calibrate"
    grid_points = 1024
    bandpass_width = 36e-9

    def setup(self):
        self.grid = FrequencyGrid.centered(FILTER_CENTER, GRID_WIDTH, self.grid_points)
        rng = np.random.default_rng(self.seed)
        # 0.5 nm is 25 grid steps across the pump bandwidth at 1024 points,
        # well inside build_jsa's 8-step resolution check.
        fwhm = rng.uniform(0.5e-9, 1.1e-9, SCHEDULE)
        length = rng.uniform(1.5e-3, 2.3e-3, SCHEDULE)
        width = rng.uniform(5e-9, 9e-9, SCHEDULE)
        alpha = rng.uniform(0.45, 0.62, SCHEDULE)
        self.draws = [
            Draw(PdcModel(pump_bandwidth_fwhm=f, crystal_length=c), w, a)
            for f, c, w, a in zip(fwhm, length, width, alpha)
        ]
        self.fits = []

    def op(self, i):
        draw = self.draws[i % SCHEDULE]
        cell = self.grid.cell
        jsa = spectral.build_jsa(draw.model, self.grid)
        checks.jsa(jsa.amplitude, cell)
        jsa = spectral.apply_bandpass(jsa, FILTER_CENTER, self.bandpass_width)
        checks.jsa(jsa.amplitude, cell)
        axis, density = spectral.antidiagonal_marginal(jsa)
        spectral.marginal_fwhm(axis, density)
        splitter = calibrate.fit_edge_split(
            jsa, SplitterResponse(step_width=draw.edge_width), draw.target_alpha
        )
        amps = jointstate.post_select(jsa, splitter)
        alpha, beta = jointstate.diagonal_weights(amps)
        checks.alpha_on_target(alpha, draw.target_alpha)
        sweep = jointstate.delay_sweep(amps, *SWEEP)
        checks.coherence_bound(sweep.d, alpha, beta)
        fit = jointstate.fit_degradation(sweep, MEASURED_D)
        for tau, _ in MEASURED_D:
            d = fit.amplitude_scale * jointstate.d_parameter(amps, tau - fit.time_offset)
            checks.coherence_bound(d, alpha, beta)
            rho = jointstate.density_matrix(alpha, beta, d)
            checks.state(rho.elements)
            metrics.purity(rho)
            metrics.concurrence(rho)
        self.fits.append((fit.amplitude_scale, fit.time_offset * 1e15))

    def results(self):
        out = reference_results(calibrate_reference())
        if self.fits:
            out += [
                ("ops.degrade_scale_p50", statistics.median(s for s, _ in self.fits)),
                ("ops.degrade_offset_fs_p50", statistics.median(o for _, o in self.fits)),
            ]
        return out


@dataclass(frozen=True)
class TomoCase:
    """Background-mixed degraded model state and its mean counts."""

    delay: float
    truth: jointstate.PolarizationDensityMatrix
    means: np.ndarray


def tomo_case(ref: Reference, delay: float) -> TomoCase:
    """The criterion-08 input construction at any delay."""
    truth = tomography.mix_background(
        jointstate.density_matrix(ref.alpha, ref.beta, ref.degraded_d(delay)), BACKGROUND
    )
    checks.state(truth.elements)
    pair_rate = tomography.calibrate_pair_rate(truth, COINC_RATE)
    means = tomography.expected_rates(truth, pair_rate, SINGLES_RATE**2 / GATE_RATE, ACQUISITION)
    return TomoCase(delay, truth, means)


def random_state(rng) -> np.ndarray:
    """Full-rank random state, as in acceptance criterion 07."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TomoStats(Workload):
    """One 36-setting reconstruction per op at measured counting statistics."""

    name = "tomo-stats"
    grid_points = 512
    delays = (0.0, 25.9e-15, -25.9e-15, 400e-15)
    noiseless_every = 8
    noiseless_intensity = 480.0

    def setup(self):
        self.reference = calibrate_reference()
        self.cases = [tomo_case(self.reference, tau) for tau in self.delays]
        rng = np.random.default_rng(self.seed)
        # every delay equally often, in a seeded order
        self.schedule = np.concatenate(
            [rng.permutation(len(self.delays)) for _ in range(SCHEDULE // len(self.delays))]
        )
        self.count_seeds = rng.integers(0, 2**31, SCHEDULE)
        self.random_states = [random_state(rng) for _ in range(64)]
        # lazy module caches: projector stack and design matrix
        tomography.linear_inversion(self.cases[0].means)
        self.records = {tau: [] for tau in self.delays}
        self.noiseless = []

    def op_kind(self, i):
        return "noiseless" if i % self.noiseless_every == self.noiseless_every - 1 else "poisson"

    def op(self, i):
        if self.op_kind(i) == "noiseless":
            truth = self.random_states[(i // self.noiseless_every) % len(self.random_states)]
            est = tomography.mle_reconstruct(
                self.noiseless_intensity * tomography.projection_probabilities(truth)
            )
            checks.state(est.elements)
            fid = metrics.fidelity(est, truth)
            checks.noiseless_fidelity(fid)
            self.noiseless.append(fid)
            return
        k = (i - (i + 1) // self.noiseless_every) % SCHEDULE  # index among Poisson ops
        case = self.cases[self.schedule[k]]
        table = tomography.attach_accidentals(
            tomography.sample_counts(
                case.means,
                seed=int(self.count_seeds[k]),
                acquisition_time=ACQUISITION,
                gate_rate=GATE_RATE,
                singles_rate=SINGLES_RATE,
            )
        )
        corrected = tomography.subtract_accidentals(table)
        est = tomography.mle_reconstruct(corrected)
        checks.state(est.elements)
        fid = metrics.fidelity(est, case.truth)
        metrics.purity(est)
        metrics.concurrence(est)
        vis = [tomography.visibility(corrected, family) for family in FAMILIES]
        self.records[case.delay].append((fid, *vis))

    def infidelities(self) -> list:
        return [1.0 - rec[0] for recs in self.records.values() for rec in recs]

    def results(self):
        out = reference_results(self.reference)
        for tau, recs in self.records.items():
            if not recs:
                continue
            label = f"tomo.{tau * 1e15:g}fs"
            out.append((f"{label}.ops", len(recs)))
            out.append((f"{label}.fidelity_p50", statistics.median(r[0] for r in recs)))
            for j, family in enumerate(FAMILIES, start=1):
                out.append((f"{label}.visibility_{family}_p50", statistics.median(r[j] for r in recs)))
        if self.infidelities():
            out.append(("tomo_infidelity_p50", statistics.median(self.infidelities())))
        if self.noiseless:
            out.append(("tomo.noiseless_fidelity_min", min(self.noiseless)))
        return out


def _lines(*keys):
    return [rf"{key} {checks.NUMBER}" for key in keys]


_REPORT_KEYS = ("purity", "concurrence", "fidelity", "re_D", "im_D", "abs_D", "phase_rad", "car")
_FIT_LINES = _lines("amplitude_scale", "time_offset_fs") + [
    rf"residual tau_fs {checks.NUMBER} re {checks.NUMBER} im {checks.NUMBER}"
] * len(MEASURED_D)


class CliSession(Workload):
    """Seven CLI commands in a fresh output directory per op."""

    name = "cli-session"
    grid_points = 512  # the configuration default
    tau_points = 801  # the configuration default for a uniform sweep

    def setup(self):
        self.reference = ref = calibrate_reference()
        setup_dir = os.path.join(self.work_dir, "setup")
        shutil.rmtree(setup_dir, ignore_errors=True)
        os.makedirs(setup_dir)
        self.edge_table = os.path.join(setup_dir, "edge_h.txt")
        lam_nm = np.linspace(1500.0, 1570.0, 701)
        t_h = ref.splitter.transmission(spectral.wavelength_to_omega(lam_nm * 1e-9), "H")
        np.savetxt(
            self.edge_table,
            np.column_stack([lam_nm, t_h]),
            fmt="%.17g",
            header="lambda_nm T: calibrated H edge, tabulated",
        )
        self.degrade = "%.17g,%.17g" % (ref.fit.amplitude_scale, ref.fit.time_offset * 1e15)
        self.base_config = (
            f"splitter_table_h = {self.edge_table}\n"
            f"edge_v_nm = {ref.splitter.edge_wavelength_v * 1e9:.17g}\n"
            f"degrade_scale = {ref.fit.amplitude_scale:.17g}\n"
            f"degrade_offset_fs = {ref.fit.time_offset * 1e15:.17g}\n"
        )
        self.base_cfg = os.path.join(setup_dir, "base.cfg")
        with open(self.base_cfg, "w", encoding="utf-8") as fh:
            fh.write(self.base_config)
        self.observations = os.path.join(setup_dir, "measured_d.txt")
        with open(self.observations, "w", encoding="utf-8") as fh:
            for tau, d in MEASURED_D:
                fh.write("%.17g %.17g %.17g\n" % (tau * 1e15, d.real, d.imag))
        tomography.linear_inversion(tomography.expected_rates(np.eye(4) / 4, 1.0, 0.0, 1.0))
        self.count_seeds = np.random.default_rng(self.seed).integers(0, 2**31, SCHEDULE)
        self.infidelity = []
        self.fit_lines = []

    def prepare(self):
        """Reference JSA file from the CLI and its bit-exact round trip;
        every op's jsa.txt must equal it byte for byte."""
        setup_dir = os.path.dirname(self.base_cfg)
        self._cli("jsa", ["jsa", "--config", self.base_cfg, "--out", setup_dir],
                  _lines("discarded_fraction", "neglected_fraction"))
        self.reference_jsa = os.path.join(setup_dir, "jsa.txt")
        first = spectral.read_jsa(self.reference_jsa)
        checks.jsa(first.amplitude, first.grid.cell)
        copy = os.path.join(setup_dir, "jsa_copy.txt")
        spectral.write_jsa(copy, first)
        checks.same_bytes(self.reference_jsa, copy)
        second = spectral.read_jsa(copy)
        if not (
            np.array_equal(first.amplitude, second.amplitude)
            and np.array_equal(first.grid.omega_s_axis, second.grid.omega_s_axis)
            and np.array_equal(first.grid.omega_i_axis, second.grid.omega_i_axis)
        ):
            raise checks.CheckFailure("JSA does not round-trip bit-exactly")

    def _cli(self, command, argv, patterns) -> str:
        out, err = io.StringIO(), io.StringIO()
        with self.span(f"cli.{command}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        checks.cli_output(command, code, out.getvalue(), patterns)
        return out.getvalue()

    def _check_sweep(self, path, rows):
        table = np.loadtxt(path, ndmin=2)
        if table.shape != (rows, 8) or not np.all(np.isfinite(table)):
            raise checks.CheckFailure(f"{path}: expected {rows} finite rows of 8 columns")
        checks.coherence_bound(table[:, 1] + 1j * table[:, 2], table[:, 4], table[:, 5])

    def op(self, i):
        out_dir = os.path.join(self.work_dir, f"op-{i}")
        os.makedirs(out_dir)
        config = os.path.join(out_dir, "run.cfg")
        jsa_path = os.path.join(out_dir, "jsa.txt")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(self.base_config + f"jsa_file = {jsa_path}\n")
        common = ["--config", config, "--out", out_dir]
        sweep_path = os.path.join(out_dir, "sweep.txt")
        counts = os.path.join(out_dir, "counts.txt")
        model = os.path.join(out_dir, "model_matrix.txt")
        rho = os.path.join(out_dir, "rho.txt")

        self._cli("jsa", ["jsa", "--config", self.base_cfg, "--out", out_dir],
                  _lines("discarded_fraction", "neglected_fraction"))
        checks.same_bytes(jsa_path, self.reference_jsa)
        self._cli("sweep", ["sweep", *common],
                  [rf"sweep {re.escape(sweep_path)} rows {self.tau_points}"])
        self._check_sweep(sweep_path, self.tau_points)
        delays = ",".join("%g" % (tau * 1e15) for tau, _ in MEASURED_D)
        self._cli("sweep_delays",
                  ["sweep", *common, f"--delay-fs={delays}", "--degrade", self.degrade],
                  [rf"sweep {re.escape(sweep_path)} rows {len(MEASURED_D)}"])
        self._check_sweep(sweep_path, len(MEASURED_D))
        seed = str(self.count_seeds[i % SCHEDULE])
        self._cli("tomo_simulate", ["tomo", "simulate", *common, "--seed", seed],
                  [rf"counts {re.escape(counts)} pair_rate_hz {checks.NUMBER}"])
        report = self._cli(
            "tomo_reconstruct",
            ["tomo", "reconstruct", *common, "--counts", counts, "--reference", model],
            _lines(*_REPORT_KEYS, *(f"visibility_{f}" for f in FAMILIES)),
        )
        for path in (model, rho):
            checks.state(jointstate.read_density_matrix(path).elements)
        self._cli("metrics", ["metrics", "--matrix", rho, "--counts", counts, "--reference", model],
                  _lines(*_REPORT_KEYS))
        fit = self._cli("fit", ["fit", *common, "--observations", self.observations], _FIT_LINES)
        shutil.rmtree(out_dir)
        self.infidelity.append(1.0 - float(report.splitlines()[2].split()[1]))
        self.fit_lines = fit.splitlines()

    def results(self):
        out = reference_results(self.reference)
        if self.infidelity:
            out.append(("cli.tomo_infidelity_p50", statistics.median(self.infidelity)))
        if self.fit_lines:
            values = [line.split() for line in self.fit_lines]
            out.append(("cli.fit.amplitude_scale", float(values[0][1])))
            out.append(("cli.fit.time_offset_fs", float(values[1][1])))
            out.append(("cli.fit.residual_max", max(abs(float(v[k])) for v in values[2:] for k in (4, 6))))
        return out


WORKLOADS = {w.name: w for w in (ModelCalibrate, TomoStats, CliSession)}
