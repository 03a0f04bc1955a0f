"""Pinned figures of the pipeline on fixed inputs.

A change that keeps the numbers keeps these tests green without anyone
comparing outputs by hand; a change that means to move a figure updates
its pin here and says why in CHANGES.md.  Every pin has a stated
tolerance and none compares bytes of float text: NumPy's vectorized
``exp`` and ``sin`` may differ in the last bit between CPUs.

- Figures computed in process: 1e-12 relative (complex values: of |D|).
- Floats the CLI prints with ``%.12g``: 1e-11 relative, one unit in the
  last printed digit; ``%.6g`` residuals: 1e-5 relative.
- The criterion-08 median fidelity and the floats ``tomo reconstruct``
  prints: 1e-9 relative, because the likelihood reconstruction stops on a
  relative gain of 1e-10, so a last-bit change in its input can move the
  step it stops at.
- The integers of a count table sampled at a fixed seed: exactly.
"""

import numpy as np
import pytest

from polentsim import jointstate, spectral
from polentsim.cli import main
from polentsim.config import RunConfig

from test_acceptance import (
    calibrated_pipeline,
    coherence_residual,
    tomography_medians,
)

#: The configuration defaults on a 256-point grid.
CONFIG_TEXT = "grid_points = 256\n"
#: The criterion-04 observations (tau_fs, re_D, im_D).
OBSERVATIONS = [(0.0, 0.243, 0.259), (25.9, 0.361, 0.132), (-25.9, 0.097, 0.242)]

ALPHA, BETA = 0.5001251157407028, 0.49987488425929716
D_PINNED = {
    -25.9: 0.29631194671076355 + 0.34104368815663927j,
    0.0: 0.4438283824678921 + 0.20194201495854505j,
    25.9: 0.4999568118238632 - 3.9735768015074784e-15j,
}
FIT_SCALE, FIT_OFFSET = 0.7437555362222048, 2.2499999999998188e-14


def close(got, want, rel):
    return abs(got - want) <= rel * abs(want)


def printed(text):
    """``key value`` lines of a command's stdout as a dict of floats."""
    pairs = (line.split() for line in text.splitlines())
    return {key: float(value) for key, value in pairs}


@pytest.fixture(scope="module")
def amps():
    config = RunConfig.load(None, {"grid_points": 256})
    jsa = spectral.build_jsa(config.pdc_model(), config.grid())
    return jointstate.post_select(jsa, config.splitter())


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def test_weights_and_coherence(amps):
    assert close(amps.alpha, ALPHA, 1e-12) and close(amps.beta, BETA, 1e-12)
    for tau_fs, want in D_PINNED.items():
        assert close(jointstate.d_parameter(amps, tau_fs * 1e-15), want, 1e-12)


def test_degradation_fit(amps):
    sweep = jointstate.delay_sweep(amps, -400e-15, 400e-15, 801)
    fit = jointstate.fit_degradation(
        sweep, [(t * 1e-15, complex(re, im)) for t, re, im in OBSERVATIONS]
    )
    assert close(fit.amplitude_scale, FIT_SCALE, 1e-12)
    assert close(fit.time_offset, FIT_OFFSET, 1e-12)


def test_jsa_command(config_path, tmp_path, capsys):
    assert main(["jsa", "--config", config_path, "--out", str(tmp_path)]) == 0
    report = printed(capsys.readouterr().out)
    assert report.keys() == {"discarded_fraction", "neglected_fraction"}
    assert close(report["discarded_fraction"], 0.749165426379, 1e-11)
    assert close(report["neglected_fraction"], 0.0882512352992, 1e-11)


def test_sweep_command(config_path, tmp_path, capsys):
    """A degraded listed sweep: every column of sweep.txt, the derived
    purity and anchored phase included."""
    out = tmp_path / "out"
    assert main(
        ["sweep", "--config", config_path, "--out", str(out),
         "--delay-fs=25.9,-25.9,0", "--degrade", "0.76,21.5"]
    ) == 0
    assert capsys.readouterr().out == f"sweep {out / 'sweep.txt'} rows 3\n"
    weights = [0.50012511574070284, 0.49987488425929716]
    want = np.array([
        [-25.900000000000002, 0.10809340592362991, 0.28953992050710986,
         0.30905913668978324, *weights, 0.69103513125076543, 1.2134921838171149],
        [0.0, 0.24759757883766384, 0.24616929429774226,
         0.34914736502130672, *weights, 0.74380779631054039, 0.7825055421342163],
        [25.900000000000002, 0.3502741365544712, 0.12961033559465204,
         0.37348468486932457, *weights, 0.77898165097177452, 0.35440228074956964],
    ])
    got = np.loadtxt(out / "sweep.txt")
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_tomo_simulate_and_metrics_commands(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["tomo", "simulate", "--config", config_path, "--out", str(out)]) == 0
    status = capsys.readouterr().out.split()
    assert status[:2] == ["counts", str(out / "counts.txt")]
    assert status[2] == "pair_rate_hz"
    assert close(float(status[3]), 8.20312815706, 1e-11)
    matrix = str(out / "model_matrix.txt")
    assert main(
        ["metrics", "--matrix", matrix, "--reference", matrix,
         "--counts", str(out / "counts.txt")]
    ) == 0
    report = printed(capsys.readouterr().out)
    want = {
        "purity": 0.926797076964,
        "concurrence": 0.924917942465,
        "fidelity": 1.0,
        "re_D": 0.474958971233,
        "im_D": 0.0,  # -3.8e-15 of roundoff
        "abs_D": 0.474958971233,
        "phase_rad": 0.0,  # -8.0e-15 of roundoff
        "car": 11.2669428168,
    }
    assert report.keys() == want.keys()
    for key, value in want.items():
        assert report[key] == pytest.approx(value, rel=1e-11, abs=1e-12), key


#: The rows of counts.txt from ``tomo simulate --seed 7``: setting,
#: coincidences and the two singles.
COUNTS_SEED_7 = """\
H H 63 104318 104371
H V 547 104232 103388
H Dp 284 104334 104824
H Dm 310 104483 104265
H R 284 104663 104021
H L 281 104720 104326
V H 528 104697 104618
V V 53 104092 104065
V Dp 299 105117 104250
V Dm 292 105152 104419
V R 300 104637 104333
V L 294 104319 103793
Dp H 304 104418 104156
Dp V 287 104566 104520
Dp Dp 553 104243 104097
Dp Dm 54 104110 104765
Dp R 294 104495 104487
Dp L 301 104216 104369
Dm H 266 104526 103754
Dm V 294 104661 104623
Dm Dp 57 104932 104834
Dm Dm 481 104940 103387
Dm R 285 104158 104077
Dm L 311 104045 105047
R H 299 104722 104502
R V 303 104468 104788
R Dp 291 104249 103944
R Dm 289 104703 104804
R R 596 103980 104845
R L 64 104467 104501
L H 317 104551 104740
L V 272 104237 104813
L Dp 297 104038 104541
L Dm 296 104458 104288
L R 71 104360 103914
L L 532 103989 104750
"""


def test_tomo_simulate_counts_and_reconstruct_command(config_path, tmp_path, capsys):
    """The count table at a fixed seed, every integer exactly, and the
    floats ``tomo reconstruct`` prints from it (1e-9 relative, as the
    likelihood fit behind them)."""
    out = tmp_path / "out"
    counts, matrix = out / "counts.txt", out / "model_matrix.txt"
    assert main(
        ["tomo", "simulate", "--config", config_path, "--out", str(out), "--seed", "7"]
    ) == 0
    capsys.readouterr()
    header, *rows = counts.read_text().splitlines()
    assert [float(v) for v in header.split()[1:]] == [120.0, 1.9e6]
    assert [row.split() for row in rows] == [
        row.split() for row in COUNTS_SEED_7.splitlines()
    ]
    assert main(
        ["tomo", "reconstruct", "--config", config_path, "--out", str(out),
         "--counts", str(counts), "--reference", str(matrix)]
    ) == 0
    report = printed(capsys.readouterr().out)
    want = {
        "purity": 0.928952046666,
        "concurrence": 0.930142616412,
        "fidelity": 0.991226844303,
        "re_D": 0.473983833999,
        "im_D": -0.00424504895753,
        "abs_D": 0.47400284317,
        "phase_rad": -0.0089558654905,
        "car": 11.5731336392,
        "visibility_HV": 0.940787808515,
        "visibility_DD": 0.975909712379,
        "visibility_RL": 0.942871808062,
    }
    assert report.keys() == want.keys()
    for key, value in want.items():
        assert close(report[key], value, 1e-9), key


def test_fit_command(config_path, tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("".join("%g %g %g\n" % row for row in OBSERVATIONS))
    assert main(["fit", "--config", config_path, "--observations", str(obs)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0][0] == "amplitude_scale"
    assert close(float(lines[0][1]), FIT_SCALE, 1e-11)
    assert lines[1] == ["time_offset_fs", "22.5"]
    want = [(0.0, -0.00559155, -0.0150046), (25.9, -0.0209111, 0.000260026),
            (-25.9, 0.0034354, 0.0414066)]
    assert len(lines) == 2 + len(want)
    for parts, (tau_fs, re, im) in zip(lines[2:], want):
        assert parts[:3] == ["residual", "tau_fs", "%g" % tau_fs]
        assert close(float(parts[4]), re, 1e-5)
        assert close(float(parts[6]), im, 1e-5)


def test_acceptance_figures():
    """The criterion-04 residual and the criterion-08 medians, on the
    shared calibrated pipeline of the acceptance suite."""
    pipe = calibrated_pipeline()
    assert close(pipe["fit"].amplitude_scale, 0.7609037090215718, 1e-12)
    assert close(pipe["fit"].time_offset, 2.1499999999998192e-14, 1e-12)
    assert close(coherence_residual(), 0.04453069396569859, 1e-12)
    median_f, vis = tomography_medians()
    assert close(median_f, 0.9918422444319318, 1e-9)
    assert close(vis["HV"], 0.9521832751910331, 1e-12)
    assert close(vis["DD"], 0.642896296984546, 1e-12)
    assert close(vis["RL"], 0.6474941331861918, 1e-12)
