"""Command-line front-end for the simulation pipeline.

Subcommands: ``jsa``, ``sweep``, ``tomo simulate``, ``tomo reconstruct``,
``metrics``, ``fit``.  Each run is driven by a flat ``key = value``
configuration file; command-line flags override file values.  Delays are
femtoseconds at the boundary and seconds internally.  Exit codes: 0 ok,
2 configuration error, 4 malformed data file, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jointstate, metrics, spectral, tomography
from .config import RunConfig
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    ResolutionError,
    SimulationError,
)

_CONFIG_ERRORS = (ConfigError, DomainError, ResolutionError)


def _error_category(exc: SimulationError):
    if isinstance(exc, _CONFIG_ERRORS):
        return "config", 2
    if isinstance(exc, FormatError):
        return "format", 4
    return "numeric", 3


def _load_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    if getattr(args, "background", None) is not None:
        overrides["background_b"] = args.background
    return RunConfig.load(args.config, overrides)


def _out_path(config: RunConfig, name: str) -> str:
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _parse_degrade(text: str) -> jointstate.DegradationModel:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("--degrade expects SCALE,OFFSET_FS")
    try:
        scale, offset_fs = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"--degrade: {exc}") from exc
    return jointstate.DegradationModel(
        amplitude_scale=scale, time_offset=offset_fs * 1e-15
    )


def _parse_delays(text: str) -> np.ndarray:
    """Sorted, de-duplicated ``--delay-fs`` list, in seconds."""
    try:
        delays_fs = np.unique([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"--delay-fs: {exc}") from exc
    if not np.all(np.isfinite(delays_fs)):
        raise ConfigError("--delay-fs: delays must be finite")
    return delays_fs * 1e-15


def _degradation(args, config: RunConfig):
    if getattr(args, "degrade", None) is not None:
        return _parse_degrade(args.degrade)
    if config["degrade_scale"] is not None:
        return jointstate.DegradationModel(
            amplitude_scale=config["degrade_scale"],
            time_offset=config["degrade_offset_fs"] * 1e-15,
        )
    return None


def _build_jsa(config: RunConfig) -> spectral.JsaGrid:
    if config["jsa_file"]:
        return spectral.read_jsa(config["jsa_file"])
    # the grid spans the filter window, so the build is the filtered JSA
    return spectral.build_jsa(config.pdc_model(), config.grid())


def _post_selected(config: RunConfig) -> jointstate.PostSelectedAmplitudes:
    return jointstate.post_select(_build_jsa(config), config.splitter())


def cmd_jsa(args) -> int:
    config = _load_config(args)
    jsa = _build_jsa(config)
    spectral.write_jsa(_out_path(config, "jsa.txt"), jsa)
    amps = jointstate.post_select(jsa, config.splitter())
    sys.stdout.write("discarded_fraction %.12g\n" % jsa.discarded_fraction)
    sys.stdout.write("neglected_fraction %.12g\n" % amps.neglected_fraction)
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    amps = _post_selected(config)
    if args.delay_fs:
        taus = _parse_delays(args.delay_fs)
    else:
        taus = jointstate.uniform_delays(
            config["tau_min_fs"] * 1e-15,
            config["tau_max_fs"] * 1e-15,
            config["tau_points"],
        )
    sweep = jointstate.sweep_at(amps, taus, _degradation(args, config))
    path = _out_path(config, "sweep.txt")
    jointstate.write_sweep(path, sweep)
    sys.stdout.write("sweep %s rows %d\n" % (path, sweep.tau.size))
    return 0


def _model_state(config: RunConfig, model) -> jointstate.PolarizationDensityMatrix:
    amps = _post_selected(config)
    alpha, beta = jointstate.diagonal_weights(amps)
    d = jointstate.d_parameter(amps, config["delay_fs"] * 1e-15, model)
    rho = jointstate.density_matrix(alpha, beta, d)
    if config["background_b"] > 0:
        rho = tomography.mix_background(rho, config["background_b"])
    return rho


def cmd_tomo_simulate(args) -> int:
    config = _load_config(args)
    if not config["gate_rate_hz"] > 0:
        raise ConfigError("gate_rate_hz must be positive")
    rho = _model_state(config, _degradation(args, config))
    jointstate.write_density_matrix(_out_path(config, "model_matrix.txt"), rho)
    pair_rate = config["pair_rate_hz"]
    if pair_rate is None:
        pair_rate = tomography.calibrate_pair_rate(
            rho, config["coincidence_rate_hz"]
        )
    singles_rate = config["singles_rate_hz"]
    accidental_rate = singles_rate * singles_rate / config["gate_rate_hz"]
    means = tomography.expected_rates(
        rho, pair_rate, accidental_rate, config["acquisition_s"]
    )
    table = tomography.sample_counts(
        means,
        seed=config["seed"],
        acquisition_time=config["acquisition_s"],
        gate_rate=config["gate_rate_hz"],
        singles_rate=singles_rate,
    )
    path = _out_path(config, "counts.txt")
    tomography.write_count_table(path, table)
    sys.stdout.write("counts %s pair_rate_hz %.12g\n" % (path, pair_rate))
    return 0


def cmd_tomo_reconstruct(args) -> int:
    config = _load_config(args)
    table = tomography.read_count_table(args.counts)
    table = tomography.attach_accidentals(table)
    corrected = tomography.subtract_accidentals(table)
    rho = tomography.mle_reconstruct(corrected)
    jointstate.write_density_matrix(_out_path(config, "rho.txt"), rho)
    reference = (
        jointstate.read_density_matrix(args.reference) if args.reference else None
    )
    report = metrics.state_report(rho, reference=reference, table=table)
    for family in ("HV", "DD", "RL"):
        report += "visibility_%s %.12g\n" % (
            family,
            tomography.visibility(corrected, family),
        )
    with open(_out_path(config, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(report)
    sys.stdout.write(report)
    return 0


def cmd_metrics(args) -> int:
    rho = jointstate.read_density_matrix(args.matrix)
    reference = (
        jointstate.read_density_matrix(args.reference) if args.reference else None
    )
    table = None
    if args.counts:
        table = tomography.attach_accidentals(
            tomography.read_count_table(args.counts)
        )
    sys.stdout.write(metrics.state_report(rho, reference=reference, table=table))
    return 0


def _read_observations(path):
    observations = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"{path}:{lineno}: expected 'tau_fs re_D im_D'")
            try:
                tau_fs, re, im = (float(p) for p in parts)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if not np.all(np.isfinite((tau_fs, re, im))):
                raise FormatError(f"{path}:{lineno}: values must be finite")
            observations.append((tau_fs * 1e-15, complex(re, im)))
    return observations


def cmd_fit(args) -> int:
    config = _load_config(args)
    observations = _read_observations(args.observations)
    amps = _post_selected(config)
    sweep = jointstate.delay_sweep(
        amps,
        config["tau_min_fs"] * 1e-15,
        config["tau_max_fs"] * 1e-15,
        config["tau_points"],
    )
    model = jointstate.fit_degradation(sweep, observations)
    sys.stdout.write("amplitude_scale %.12g\n" % model.amplitude_scale)
    sys.stdout.write("time_offset_fs %.12g\n" % (model.time_offset * 1e15))
    for tau, observed in observations:
        predicted = jointstate.d_parameter(amps, tau, model)
        sys.stdout.write(
            "residual tau_fs %.6g re %.6g im %.6g\n"
            % (tau * 1e15, predicted.real - observed.real, predicted.imag - observed.imag)
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polentsim",
        description="Simulate and characterize dichroic-split "
        "polarization-entangled photon pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="random seed override")
        p.add_argument("--out", help="output directory override")

    p_jsa = sub.add_parser("jsa", help="build and export the pair amplitude")
    add_common(p_jsa)
    p_jsa.set_defaults(func=cmd_jsa)

    p_sweep = sub.add_parser("sweep", help="coherence vs. signal-idler delay")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--delay-fs", help="comma-separated delays (fs) instead of a uniform sweep"
    )
    p_sweep.add_argument("--degrade", help="SCALE,OFFSET_FS degradation to apply")
    p_sweep.set_defaults(func=cmd_sweep)

    p_tomo = sub.add_parser("tomo", help="tomography simulation/reconstruction")
    tomo_sub = p_tomo.add_subparsers(dest="mode", required=True)

    p_sim = tomo_sub.add_parser("simulate", help="sample a 36-setting count table")
    add_common(p_sim)
    p_sim.add_argument("--degrade", help="SCALE,OFFSET_FS degradation to apply")
    p_sim.add_argument(
        "--background", type=float, help="uniform diagonal background weight"
    )
    p_sim.set_defaults(func=cmd_tomo_simulate)

    p_rec = tomo_sub.add_parser("reconstruct", help="MLE state from a count table")
    add_common(p_rec)
    p_rec.add_argument("--counts", required=True, help="count-table file")
    p_rec.add_argument("--reference", help="density-matrix file for fidelity")
    p_rec.set_defaults(func=cmd_tomo_reconstruct)

    p_met = sub.add_parser("metrics", help="report metrics of a stored state")
    p_met.add_argument("--matrix", required=True, help="density-matrix file")
    p_met.add_argument("--reference", help="density-matrix file for fidelity")
    p_met.add_argument("--counts", help="count-table file for the CAR")
    p_met.set_defaults(func=cmd_metrics)

    p_fit = sub.add_parser("fit", help="fit the two-parameter degradation")
    add_common(p_fit)
    p_fit.add_argument(
        "--observations", required=True, help="file of 'tau_fs re_D im_D' rows"
    )
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SimulationError as exc:
        category, code = _error_category(exc)
        sys.stderr.write(f"error[{category}]: {exc}\n")
        return code
    except OSError as exc:
        sys.stderr.write(f"error[config]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
