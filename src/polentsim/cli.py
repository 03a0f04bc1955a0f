"""Command-line front-end for the simulation pipeline.

Subcommands: ``jsa``, ``sweep``, ``tomo simulate``, ``tomo reconstruct``,
``metrics``, ``fit``.  Each run is driven by a flat ``key = value``
configuration file; command-line flags override file values.  Delays are
femtoseconds at the boundary and seconds internally.  Exit codes: 0 ok,
2 configuration error, 4 malformed data file, 3 numeric failure.
Each ``cmd_*`` returns ``(files, report)``: ``(path, writer, value)`` in
write order and its stdout text.  Only :func:`main` writes, after every check.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jointstate, metrics, spectral, tomography
from .config import RunConfig, parse_value
from .errors import ConfigError, SimulationError, fault_of, parse_fields, read_rows


#: flag -> the configuration key it overrides
_FLAG_KEYS = {"seed": "seed", "out": "out_dir", "background": "background_b"}


def _load_config(args) -> RunConfig:
    """The ``--config`` file's values under the flags that override them;
    ``--degrade S,O`` overrides ``degrade_scale`` and ``degrade_offset_fs``."""
    texts = [(key, f"--{flag}", getattr(args, flag, None))
             for flag, key in _FLAG_KEYS.items()]
    if getattr(args, "degrade", None) is not None:
        parts = args.degrade.split(",")
        if len(parts) != 2:
            raise ConfigError("--degrade expects SCALE,OFFSET_FS")
        texts += zip(("degrade_scale", "degrade_offset_fs"), ("--degrade",) * 2, parts)
    overrides = {
        key: parse_value(key, text, flag) for key, flag, text in texts if text is not None
    }
    return RunConfig.load(args.config, overrides)


def _out_path(config: RunConfig, name: str) -> str:
    return os.path.join(config["out_dir"], name)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_delays(text: str) -> np.ndarray:
    """Sorted, de-duplicated ``--delay-fs`` list, in seconds."""
    try:
        return np.unique(parse_fields(float, text.split(","))) * 1e-15
    except ValueError as exc:
        raise ConfigError(f"--delay-fs: {exc}") from exc


def _check_alias_window(amps, taus, model=None) -> None:
    """Reject delays with |tau - t0| >= pi / d_omega: on the grid, D(tau)
    repeats with period 2 pi / d_omega, t0 the degradation offset."""
    taus = np.atleast_1d(taus)
    shifted = np.abs(taus - (model.time_offset if model is not None else 0.0))
    worst = int(np.argmax(shifted))
    limit = np.pi / amps.grid.d_omega
    if shifted[worst] >= limit:
        raise ConfigError(
            "delay %.6g fs is beyond the grid's alias window |tau - t0| < %.6g fs;"
            " raise grid_points" % (taus[worst] * 1e15, limit * 1e15)
        )


def _build_jsa(config: RunConfig) -> spectral.JsaGrid:
    if config["jsa_file"]:
        return spectral.read_jsa(config["jsa_file"])
    # the grid spans the filter window, so the build is the filtered JSA
    return spectral.build_jsa(config.pdc_model(), config.grid())


def _post_selected(config: RunConfig) -> jointstate.PostSelectedAmplitudes:
    return jointstate.post_select(_build_jsa(config), config.splitter())


def cmd_jsa(args):
    config = _load_config(args)
    jsa = _build_jsa(config)
    amps = jointstate.post_select(jsa, config.splitter())
    report = metrics.format_report({"discarded_fraction": jsa.discarded_fraction,
                                    "neglected_fraction": amps.neglected_fraction})
    return [(_out_path(config, "jsa.txt"), spectral.write_jsa, jsa)], report


def cmd_sweep(args):
    config = _load_config(args)
    amps = _post_selected(config)
    if args.delay_fs is not None:
        taus = _parse_delays(args.delay_fs)
    else:
        taus = jointstate.uniform_delays(
            config["tau_min_fs"] * 1e-15,
            config["tau_max_fs"] * 1e-15,
            config["tau_points"],
        )
    model = config.degradation()
    _check_alias_window(amps, taus, model)
    sweep = jointstate.sweep_at(amps, taus, model)
    path = _out_path(config, "sweep.txt")
    report = "sweep %s rows %d\n" % (path, sweep.tau.size)
    return [(path, jointstate.write_sweep, sweep)], report


def _model_state(config: RunConfig, model) -> jointstate.PolarizationDensityMatrix:
    amps = _post_selected(config)
    alpha, beta = jointstate.diagonal_weights(amps)
    delay = config["delay_fs"] * 1e-15
    _check_alias_window(amps, delay, model)
    d = jointstate.d_parameter(amps, delay, model)
    rho = jointstate.density_matrix(alpha, beta, d)
    if config["background_b"] > 0:
        rho = tomography.mix_background(rho, config["background_b"])
    return rho


def cmd_tomo_simulate(args):
    config = _load_config(args)
    if not config["gate_rate_hz"] > 0:
        raise ConfigError("gate_rate_hz must be positive")
    rho = _model_state(config, config.degradation())
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
    return [
        (_out_path(config, "model_matrix.txt"), jointstate.write_density_matrix, rho),
        (path, tomography.write_count_table, table),
    ], "counts %s pair_rate_hz %.12g\n" % (path, pair_rate)


def cmd_tomo_reconstruct(args):
    config = _load_config(args)
    table = tomography.read_count_table(args.counts)
    table = tomography.attach_accidentals(table)
    reference = (
        jointstate.read_density_matrix(args.reference) if args.reference else None
    )
    corrected = tomography.subtract_accidentals(table)
    with fault_of(args.counts):  # a table that parses but holds no signal
        rho = tomography.mle_reconstruct(corrected)
        report = metrics.state_report(rho, reference=reference, table=table)
        report += metrics.format_report({
            f"visibility_{family}": tomography.visibility(corrected, family)
            for family in ("HV", "DD", "RL")
        })
    return [
        (_out_path(config, "rho.txt"), jointstate.write_density_matrix, rho),
        (_out_path(config, "metrics.txt"), _write_text, report),
    ], report


def cmd_metrics(args):
    rho = jointstate.read_density_matrix(args.matrix)
    reference = (
        jointstate.read_density_matrix(args.reference) if args.reference else None
    )
    table = (
        tomography.attach_accidentals(tomography.read_count_table(args.counts))
        if args.counts else None
    )
    report = metrics.state_report(rho, reference=reference)
    if table is not None:
        with fault_of(args.counts):  # a table with no singles has no CAR
            report += metrics.format_report({"car": metrics.car(table)})
    return [], report


def cmd_fit(args):
    config = _load_config(args)
    rows = read_rows(args.observations, "tau_fs re_D im_D", (float, float, float))
    observations = [(tau * 1e-15, complex(re, im)) for _, (tau, re, im) in rows]
    with fault_of(args.observations):
        jointstate.check_observations(observations)
    amps = _post_selected(config)
    window = (config["tau_min_fs"] * 1e-15, config["tau_max_fs"] * 1e-15)
    _check_alias_window(amps, window)
    sweep = jointstate.delay_sweep(amps, *window, config["tau_points"])
    model = jointstate.fit_degradation(sweep, observations)
    report = metrics.format_report({"amplitude_scale": model.amplitude_scale,
                                    "time_offset_fs": model.time_offset * 1e15})
    for tau, observed in observations:
        predicted = jointstate.d_parameter(amps, tau, model)
        report += "residual tau_fs %.6g re %.6g im %.6g\n" % (
            tau * 1e15, predicted.real - observed.real, predicted.imag - observed.imag
        )
    return [], report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polentsim",
        description="Simulate and characterize dichroic-split "
        "polarization-entangled photon pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", help="random seed override")
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
    p_sim.add_argument("--background", help="uniform diagonal background weight")
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
        files, report = args.func(args)
        for path, writer, value in files:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            writer(path, value)
        sys.stdout.write(report)
    except SimulationError as exc:
        sys.stderr.write(f"error[{exc.category}]: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"error[config]: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
