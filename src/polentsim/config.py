"""Flat key = value run configuration."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .dichroic import SplitterResponse, read_transmission_table
from .errors import ConfigError, numbered_lines, parse_fields
from .jointstate import DegradationModel
from .spectral import FrequencyGrid, PdcModel

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _to_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"not a boolean: {text!r}")


#: key -> (kind, default)
SCHEMA = {
    "pump_center_nm": (float, 767.6),
    "pump_bandwidth_fwhm_nm": (float, 0.8),
    "degeneracy_nm": (float, 1535.2),
    "crystal_length_mm": (float, 1.87),
    "intrinsic_delay_fs": (float, 25.9),
    "group_index_signal": (float, None),
    "group_index_idler": (float, None),
    "group_index_pump": (float, None),
    "grid_points": (int, 512),
    "filter_center_nm": (float, 1535.2),
    "filter_width_nm": (float, 40.0),
    "edge_h_nm": (float, 1535.2),
    "edge_v_nm": (float, 1535.2),
    "step_width_nm": (float, 7.0),
    "transmit_long": (bool, True),
    "splitter_table_h": (str, None),
    "splitter_table_v": (str, None),
    "jsa_file": (str, None),
    "tau_min_fs": (float, -400.0),
    "tau_max_fs": (float, 400.0),
    "tau_points": (int, 801),
    "delay_fs": (float, 25.9),
    "degrade_scale": (float, None),
    "degrade_offset_fs": (float, 0.0),
    "coincidence_rate_hz": (float, 4.0),
    "pair_rate_hz": (float, None),
    "singles_rate_hz": (float, 870.0),
    "gate_rate_hz": (float, 1.9e6),
    "acquisition_s": (float, 120.0),
    "background_b": (float, 0.0125),
    "seed": (int, 0),
    "out_dir": (str, "."),
}

_PATH_KEYS = ("splitter_table_h", "splitter_table_v", "jsa_file")

#: Largest grid_points: one complex grid of 8192^2 values is 1 GiB.
_MAX_GRID_POINTS = 8192
#: Largest tau_points on the same 1 GiB budget: at 8192 grid points the
#: coherence evaluates two (tau_points x 128) complex phase tables, 4 KiB
#: per delay.
_MAX_TAU_POINTS = 262_144


def parse_value(key, text, where):
    """The value of configuration ``key`` that ``text`` gives; a fault is a
    ConfigError that starts ``where:`` and names the key."""
    kind, _ = SCHEMA[key]
    try:
        return _to_bool(text) if kind is bool else parse_fields(kind, [text])[0]
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines; unknown keys are an error."""
    values = {}
    for lineno, line in numbered_lines(path, ConfigError):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = parse_value(key, raw, f"{path}:{lineno}")
    return values


@dataclass
class RunConfig:
    """Resolved run parameters with factory methods for the pipeline."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default) in SCHEMA.items()}
        for key, value in self.values.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            merged[key] = value
        self.values = merged
        for key, cap in (
            ("grid_points", _MAX_GRID_POINTS),
            ("tau_points", _MAX_TAU_POINTS),
        ):
            if merged[key] > cap:
                raise ConfigError(f"{key} must be at most {cap}, got {merged[key]}")
        if merged["seed"] < 0:
            raise ConfigError(f"seed must be non-negative, got {merged['seed']}")
        for key in _PATH_KEYS:
            path = self.values[key]
            if path is not None and not os.path.exists(path):
                raise ConfigError(f"{key}: file not found: {path}")

    @classmethod
    def load(cls, path=None, overrides=None) -> "RunConfig":
        values = parse_config_file(path) if path else {}
        if overrides:
            values.update(overrides)
        return cls(values)

    def __getitem__(self, key):
        return self.values[key]

    def pdc_model(self) -> PdcModel:
        v = self.values
        return PdcModel(
            pump_center_wavelength=v["pump_center_nm"] * 1e-9,
            pump_bandwidth_fwhm=v["pump_bandwidth_fwhm_nm"] * 1e-9,
            degeneracy_wavelength=v["degeneracy_nm"] * 1e-9,
            crystal_length=v["crystal_length_mm"] * 1e-3,
            intrinsic_delay_comp=v["intrinsic_delay_fs"] * 1e-15,
            group_index_signal=v["group_index_signal"],
            group_index_idler=v["group_index_idler"],
            group_index_pump=v["group_index_pump"],
        )

    def grid(self) -> FrequencyGrid:
        v = self.values
        return FrequencyGrid.centered(
            v["filter_center_nm"] * 1e-9,
            v["filter_width_nm"] * 1e-9,
            n=v["grid_points"],
        )

    def degradation(self) -> DegradationModel | None:
        v = self.values
        if v["degrade_scale"] is None:
            return None
        return DegradationModel(
            amplitude_scale=v["degrade_scale"],
            time_offset=v["degrade_offset_fs"] * 1e-15,
        )

    def splitter(self) -> SplitterResponse:
        v = self.values
        table_h = table_v = None
        if v["splitter_table_h"]:
            table_h = read_transmission_table(v["splitter_table_h"])
        if v["splitter_table_v"]:
            table_v = read_transmission_table(v["splitter_table_v"])
        return SplitterResponse(
            edge_wavelength_h=v["edge_h_nm"] * 1e-9,
            edge_wavelength_v=v["edge_v_nm"] * 1e-9,
            step_width=v["step_width_nm"] * 1e-9,
            transmit_long=v["transmit_long"],
            table_h=table_h,
            table_v=table_v,
        )
