"""Tests of the benchmark itself.

The file name keeps these tests out of the package's default ``pytest``
collection, whose results must not depend on the benchmark.  Run them
from the repository root with

    python3 -m pytest perfbench/tests/check_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from polentsim import metrics, spectral, tomography  # noqa: E402

from perfbench import checks, run, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(workload, trace, section):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    assert printed == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float) and np.isfinite(entry["value"]), name


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "tomo-stats", "--seed", "1", "--seconds", "1",
                "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_unnormalized_jsa_is_caught():
    grid = spectral.FrequencyGrid.centered(1535.2e-9, 40e-9, 64)
    amplitude = np.full((64, 64), 1.0 / np.sqrt(64 * 64 * grid.cell), dtype=complex)
    checks.jsa(amplitude, grid.cell)
    with pytest.raises(checks.CheckFailure):
        checks.jsa(1.001 * amplitude, grid.cell)
    amplitude[3, 5] = np.nan
    with pytest.raises(checks.CheckFailure):
        checks.jsa(amplitude, grid.cell)


def test_state_with_negative_eigenvalue_is_caught():
    checks.state(np.eye(4) / 4)
    bad = np.diag([0.5, 0.5, 0.1, -0.1]).astype(complex)
    with pytest.raises(checks.CheckFailure):
        checks.state(bad)
    with pytest.raises(checks.CheckFailure):
        checks.state(np.eye(4) / 4 + 1e-6j * (np.eye(4, k=1) + np.eye(4, k=-1)))


def test_other_checks_reject_corrupted_outputs():
    with pytest.raises(checks.CheckFailure):
        checks.coherence_bound([0.5 + 0.01j], 0.5, 0.5)
    with pytest.raises(checks.CheckFailure):
        checks.alpha_on_target(0.55 + 1e-5, 0.55)
    with pytest.raises(checks.CheckFailure):
        checks.noiseless_fidelity(0.9998)
    with pytest.raises(checks.CheckFailure):
        checks.cli_output("fit", 0, "amplitude_scale 0.7\n", [r"amplitude_scale \S+", r"x"])
    with pytest.raises(checks.CheckFailure):
        checks.cli_output("fit", 3, "", [])


def _negative_state(*args, **kwargs):
    return types.SimpleNamespace(elements=np.diag([0.6, 0.3, 0.2, -0.1]).astype(complex))


def test_corrupted_op_is_counted_as_failed_and_the_run_goes_on(monkeypatch, tmp_path):
    workload = workloads.TomoStats(1, str(tmp_path))
    workload.setup()
    monkeypatch.setattr(tomography, "mle_reconstruct", _negative_state)
    loop = run.closed_loop(workload, 0.2, 0)
    assert loop.attempted >= 2
    assert loop.failed == loop.attempted
    assert "eigenvalue" in loop.errors[0]


def test_a_failed_check_makes_the_run_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(tomography, "mle_reconstruct", _negative_state)
    code = run.main(["--workload", "tomo-stats", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_criterion_08_inputs_reproduce_the_tier1_values():
    """25.9 fs degraded state, count seeds 0-99: the values the acceptance
    log reports (median fidelity 0.9918; HV 0.952, DD 0.643, RL 0.647)."""
    case = workloads.tomo_case(workloads.calibrate_reference(), 25.9e-15)
    fidelities, vis = [], {family: [] for family in workloads.FAMILIES}
    for seed in range(100):
        table = tomography.attach_accidentals(tomography.sample_counts(
            case.means, seed=seed, acquisition_time=workloads.ACQUISITION,
            gate_rate=workloads.GATE_RATE, singles_rate=workloads.SINGLES_RATE,
        ))
        corrected = tomography.subtract_accidentals(table)
        fidelities.append(metrics.fidelity(tomography.mle_reconstruct(corrected), case.truth))
        for family in vis:
            vis[family].append(tomography.visibility(corrected, family))
    assert round(statistics.median(fidelities), 4) == 0.9918
    assert {k: round(statistics.median(v), 3) for k, v in vis.items()} == {
        "HV": 0.952, "DD": 0.643, "RL": 0.647,
    }
