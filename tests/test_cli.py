"""End-to-end tests of the command-line front-end."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polentsim
from polentsim import jointstate, metrics
from polentsim.cli import main
from polentsim.config import SCHEMA, RunConfig
from polentsim.dichroic import SplitterResponse
from polentsim.jointstate import read_density_matrix
from polentsim.spectral import (
    C,
    FrequencyGrid,
    build_jsa,
    read_jsa,
)
from polentsim.tomography import PROJECTION_PAIRS, read_count_table
from spectral_oracles import phase_matching, pump_envelope

CONFIG_TEXT = (
    "edge_h_nm = 1533.55\n"
    "edge_v_nm = 1536.85\n"
    "grid_points = 256\n"
    "tau_points = 101\n"
    "seed = 7\n"
)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


def run(args):
    return main(args)


class TestJsaCommand:
    def test_writes_normalized_export(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["jsa", "--config", config_path, "--out", str(out)]) == 0
        jsa = read_jsa(out / "jsa.txt")
        assert jsa.norm() == pytest.approx(1.0, abs=1e-9)
        report = dict(
            line.split() for line in capsys.readouterr().out.splitlines()
        )
        # Riemann norm in the window over the whole-plane closed form
        # dw_p sqrt(pi / (4 ln 2)) pi / |J|, J = (L / 2c)(n_gs - n_gi)
        model = RunConfig.load(config_path).pdc_model()
        ws = jsa.grid.axis[:, None]
        wi = jsa.grid.axis[None, :]
        amp = pump_envelope(model, ws + wi) * phase_matching(model, ws, wi)
        kept = np.sum(np.abs(amp) ** 2) * jsa.grid.cell
        j = model.crystal_length / (2 * C) * (
            model.group_index_signal - model.group_index_idler
        )
        plane = model.pump_bandwidth_omega * np.sqrt(np.pi / (4 * np.log(2)))
        plane *= np.pi / abs(j)
        assert float(report["discarded_fraction"]) == pytest.approx(
            1 - kept / plane, abs=1e-9
        )
        assert not (out / "jsa_abs.txt").exists()

    def test_failed_post_selection_writes_nothing(self, tmp_path, capsys):
        """Edges that route nothing into cross-path coincidences end in one
        error[numeric] line, exit 3, before any file is written."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + "edge_h_nm = 1400\nedge_v_nm = 1400\n")
        out = tmp_path / "out"
        assert run(["jsa", "--config", str(cfg), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[numeric]: splitter produces no cross-path coincidences\n"
        )
        assert not out.exists()

    def test_import_round_trip_bit_exact(self, config_path, tmp_path, capsys):
        """A JSA read back writes the same bytes and reports the same
        neglected fraction; the file does not carry the clipping figure,
        so the import prints no discarded_fraction line."""
        out = tmp_path / "out"
        run(["jsa", "--config", config_path, "--out", str(out)])
        first = (out / "jsa.txt").read_bytes()
        built = capsys.readouterr().out.splitlines()
        cfg2 = tmp_path / "import.cfg"
        cfg2.write_text(CONFIG_TEXT + f"jsa_file = {out / 'jsa.txt'}\n")
        out2 = tmp_path / "out2"
        assert run(["jsa", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out2 / "jsa.txt").read_bytes() == first
        assert built[0].startswith("discarded_fraction ")
        assert built[1].startswith("neglected_fraction ")
        assert capsys.readouterr().out.splitlines() == built[1:]

    def test_unequal_axes_file_exit_code(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        run(["jsa", "--config", config_path, "--out", str(out)])
        lines = (out / "jsa.txt").read_text().splitlines(keepends=True)
        header = lines[0].split()
        header[5] = repr(float(header[5]) + float(header[4]))  # idler start
        lines[0] = " ".join(header) + "\n"
        shifted = tmp_path / "shifted.txt"
        shifted.write_text("".join(lines))
        cfg2 = tmp_path / "import.cfg"
        cfg2.write_text(CONFIG_TEXT + f"jsa_file = {shifted}\n")
        assert run(["sweep", "--config", str(cfg2), "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith("error[format]:")

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid_pts = 64\n")
        assert run(["jsa", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error[config]:")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("pump_bandwidth_fwhm_nm", "nan"),
            ("pump_bandwidth_fwhm_nm", "inf"),
            ("edge_h_nm", "nan"),
            ("step_width_nm", "inf"),
        ],
    )
    def test_non_finite_config_value_exit_code(
        self, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + f"{key} = {value}\n")
        out = tmp_path / "out"
        assert run(["jsa", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("points", [8193, 100000000])
    def test_oversized_grid_exit_code(self, tmp_path, capsys, monkeypatch, points):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built for an oversized grid_points")

        # fail before any allocation if the grid were ever built
        monkeypatch.setattr(FrequencyGrid, "centered", no_grid)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(CONFIG_TEXT + f"grid_points = {points}\n")
        out = tmp_path / "out"
        assert run(["jsa", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]: grid_points")
        assert len(captured.err.splitlines()) == 1


class TestSweepCommand:
    def test_uniform_sweep_table(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep", "--config", config_path, "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sweep.txt")
        assert rows.shape == (101, 8)
        assert np.all(np.diff(rows[:, 0]) > 0)
        purity = rows[:, 4] ** 2 + rows[:, 5] ** 2 + 2 * rows[:, 3] ** 2
        assert np.allclose(rows[:, 6], purity, atol=1e-12)

    def test_identity_degradation_is_noop(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["sweep", "--config", config_path, "--out", str(out_a)])
        run(
            ["sweep", "--config", config_path, "--out", str(out_b),
             "--degrade", "1,0"]
        )
        assert (out_a / "sweep.txt").read_bytes() == (
            out_b / "sweep.txt"
        ).read_bytes()

    def test_listed_delays(self, config_path, tmp_path):
        out = tmp_path / "out"
        run(
            ["sweep", "--config", config_path, "--out", str(out),
             "--delay-fs", "0,25.9,-25.9"]
        )
        rows = np.loadtxt(out / "sweep.txt")
        assert rows.shape == (3, 8)
        assert np.allclose(rows[:, 0], [-25.9, 0.0, 25.9])

    @staticmethod
    def _uniform_and_listed(tmp_path, extra):
        """Rows of a uniform sweep and of the same delays listed."""
        config = tmp_path / "small.cfg"
        config.write_text(
            CONFIG_TEXT
            + "tau_min_fs = -200\ntau_max_fs = 250\ntau_points = 10\n"
        )
        out_u, out_l = tmp_path / "uniform", tmp_path / "listed"
        assert run(
            ["sweep", "--config", str(config), "--out", str(out_u), *extra]
        ) == 0
        uniform = np.loadtxt(out_u / "sweep.txt")
        delays = ",".join("%.17g" % t for t in uniform[::-1, 0])
        assert run(
            ["sweep", "--config", str(config), "--out", str(out_l),
             f"--delay-fs={delays}", *extra]
        ) == 0
        listed = np.loadtxt(out_l / "sweep.txt")
        assert listed.shape == uniform.shape
        return uniform, listed

    def test_listed_delays_match_uniform_sweep(self, tmp_path):
        uniform, listed = self._uniform_and_listed(tmp_path, [])
        # the window is wide enough that the principal value would wrap
        assert np.abs(uniform[:, 7]).max() > np.pi
        # re_D, im_D and the anchored, unwrapped phase_rad
        for col in (1, 2, 7):
            assert np.max(np.abs(listed[:, col] - uniform[:, col])) < 1e-12

    def test_degraded_listed_delays_match_uniform_sweep(self, tmp_path, capsys):
        # the offset shifts past the grid edge, where an interpolated
        # sweep would have to hold its boundary value
        uniform, listed = self._uniform_and_listed(
            tmp_path, ["--degrade", "0.76,21.5"]
        )
        assert capsys.readouterr().err == ""
        for col in range(8):
            assert np.max(np.abs(listed[:, col] - uniform[:, col])) < 1e-12

    @pytest.mark.parametrize(
        "header, body",
        [("2 2 1 1 1 1", ["0 abc"] + ["0 0"] * 3),
         ("x 2 1 1 1 1", ["0 0"] * 4),
         ("-2 -2 1 1 1 1", ["0 0"] * 4),
         ("2 2 1 1 1 1", ["nan 0"] + ["0.5 0"] * 3),
         ("2 2 1 1 1 1", ["0.5 0"] * 3 + ["0 inf"]),
         ("2 2 1 1 1 1", ["1 0"] * 4),
         ("2 2 1 0 1 0", ["0.5 0"] * 4),
         ("2 2 nan 1 nan 1", ["0.5 0"] * 4),
         ("2 2 1e308 1e308 1e308 1e308", ["0.5 0"] * 4)],
        ids=["body-value", "header-count", "negative-count", "nan-value",
             "inf-value", "doubled-amplitude", "zero-step", "nan-header",
             "huge-header"],
    )
    def test_non_numeric_jsa_file_exit_code(
        self, tmp_path, capsys, header, body
    ):
        jsa = tmp_path / "jsa.txt"
        jsa.write_text("# " + header + "\n" + "\n".join(body) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + f"jsa_file = {jsa}\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[format]:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "body, found",
        [(["0.5 0 0"] * 4, 3), (["0.5", "0"] * 4, 1)],
        ids=["three-columns", "one-value-per-line"],
    )
    def test_wrong_column_count_jsa_file_exit_code(self, tmp_path, capsys, body, found):
        """A 2-point table of rows other than two values names the columns
        it found, whatever its row count."""
        jsa = tmp_path / "jsa.txt"
        jsa.write_text("# 2 2 1 1 1 1\n" + "\n".join(body) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + f"jsa_file = {jsa}\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[format]: {jsa}: expected 2 values per row, found {found}\n"

    @pytest.mark.parametrize("rest", ["", "# no rows\n\n"], ids=["header-only", "comment-only"])
    def test_table_without_rows_exit_code(self, config_path, tmp_path, rest):
        """A JSA table with no rows and no sidecar ends in one error line
        and no numpy warning, in a process of its own, whose warnings
        filters are Python's defaults."""
        out = tmp_path / "out"
        run(["jsa", "--config", config_path, "--out", str(out)])
        jsa = out / "jsa.txt"
        jsa.write_text(jsa.read_text().split("\n", 1)[0] + "\n" + rest)
        (out / "jsa.txt.bin").unlink()
        cfg = tmp_path / "import.cfg"
        cfg.write_text(CONFIG_TEXT + f"jsa_file = {jsa}\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(polentsim.__file__).parents[1]), env.get("PYTHONPATH")) if p
        )
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "polentsim.cli", "sweep", "--config", str(cfg),
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 4
        assert done.stdout == ""
        assert done.stderr == f"error[format]: {jsa}: expected 65536 complex rows, found 0\n"

    @pytest.mark.parametrize("command", ["sweep", "jsa"])
    @pytest.mark.parametrize(
        "rows, where",
        [("1500 0.1\n1535 nan\n1570 0.9\n", ":2: "), ("1570 0.9\n1500 0.1\n", ": "),
         ("1500 0.1\n1570 1.5\n", ": ")],
        ids=["nan-value", "unsorted", "above-one"],
    )
    def test_bad_splitter_table_exit_code(self, tmp_path, capsys, rows, where, command):
        table = tmp_path / "edge_h.txt"
        table.write_text(rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + f"splitter_table_h = {table}\n")
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[format]: {table}{where}")
        assert len(captured.err.splitlines()) == 1

    def test_splitter_tables_for_both_polarizations(self, tmp_path, capsys):
        """Tables that sample the logistic edges of the H and V paths give
        the sweep of those edges; swapped, they give another sweep."""
        lam = np.linspace(1500e-9, 1570e-9, 14001)
        edges = SplitterResponse(edge_wavelength_h=1533.55e-9, edge_wavelength_v=1536.85e-9)
        for pol in "HV":
            rows = np.column_stack([lam * 1e9, edges.transmission(2 * np.pi * C / lam, pol)])
            np.savetxt(tmp_path / f"edge_{pol}.txt", rows, fmt="%.17g")

        def sweep(config_lines):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(CONFIG_TEXT + config_lines)
            out = tmp_path / "out"
            assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            return np.loadtxt(out / "sweep.txt")

        logistic = sweep("")
        tables = sweep(f"splitter_table_h = {tmp_path / 'edge_H.txt'}\n"
                       f"splitter_table_v = {tmp_path / 'edge_V.txt'}\n")
        swapped = sweep(f"splitter_table_h = {tmp_path / 'edge_V.txt'}\n"
                        f"splitter_table_v = {tmp_path / 'edge_H.txt'}\n")
        np.testing.assert_allclose(tables, logistic, rtol=0, atol=1e-6)
        assert np.max(np.abs(swapped - logistic)) > 1e-3
        capsys.readouterr()

    def test_oversized_tau_points_exit_code(self, tmp_path, capsys, monkeypatch):
        def no_delays(*args, **kwargs):
            raise AssertionError("delays built for an oversized tau_points")

        # fail before any allocation if the delays were ever built
        monkeypatch.setattr(jointstate, "uniform_delays", no_delays)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(CONFIG_TEXT + "tau_points = 1000000000000\n")
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]: tau_points")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("delays", ["1,abc", "1,,2", "0,nan"])
    def test_bad_delay_list(self, config_path, capsys, delays):
        assert run(
            ["sweep", "--config", config_path, f"--delay-fs={delays}"]
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[config]: --delay-fs")

    def test_bad_degrade_flag(self, config_path, capsys):
        assert run(
            ["sweep", "--config", config_path, "--degrade", "0.9"]
        ) == 2
        assert capsys.readouterr().err.startswith("error[config]:")

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--degrade", "0.5,nan"],
         ["sweep", "--degrade", "0.5,inf"],
         ["tomo", "simulate", "--degrade", "0.5,nan"],
         ["sweep", "--delay-fs="]],
        ids=["sweep-nan-offset", "sweep-inf-offset", "simulate-nan-offset",
             "empty-delay-list"],
    )
    def test_non_finite_offset_or_empty_delays_exit_code(
        self, config_path, tmp_path, capsys, argv
    ):
        out = tmp_path / "out"
        code = run([*argv, "--config", config_path, "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]:")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()


def beyond(delay):
    """The alias-window error for ``delay`` on the 256-point grid."""
    return (
        f"delay {delay} fs is beyond the grid's alias window"
        " |tau - t0| < 25152.8 fs; raise grid_points"
    )


class TestAliasWindow:
    """On the 256-point grid D(tau) repeats every 2 pi / d_omega = 50.3 ps,
    so a delay with |tau - t0| >= 25.2 ps is rejected, not evaluated."""

    OBSERVATIONS = "0 0.3 0.1\n25.9 0.35 0.05\n"

    @pytest.mark.parametrize(
        "argv, config_line, observations, message",
        [(["sweep"], "tau_max_fs = 30000", None, beyond("30000")),
         (["sweep", "--delay-fs=0,-26000"], "", None, beyond("-26000")),
         (["sweep", "--delay-fs=0,20000", "--degrade", "0.8,-6000"], "", None,
          beyond("20000")),
         (["tomo", "simulate"], "delay_fs = 25200", None, beyond("25200")),
         (["tomo", "simulate", "--degrade", "0.8,-5000"], "delay_fs = 20200",
          None, beyond("20200")),
         (["fit"], "tau_min_fs = -26000", OBSERVATIONS, beyond("-26000")),
         # the fit rejects it first: no offset puts it in the sweep window
         (["fit"], "", OBSERVATIONS + "30000 0 0\n",
          "observations at 0 to 30000 fs: no time offset within +-400 fs"
          " shifts them all into the sweep window -400 to 400 fs")],
        ids=["sweep-window", "sweep-listed", "sweep-degraded", "simulate",
             "simulate-degraded", "fit-window", "fit-observation"],
    )
    def test_delay_beyond_alias_window_exit_code(
        self, tmp_path, capsys, argv, config_line, observations, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + config_line + "\n")
        out = tmp_path / "out"
        argv = [*argv, "--config", str(cfg), "--out", str(out)]
        if observations is not None:
            obs = tmp_path / "obs.txt"
            obs.write_text(observations)
            argv += ["--observations", str(obs)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[config]: {message}\n"
        assert not out.exists()

    def test_delays_inside_the_window_run(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run(
            ["sweep", "--config", config_path, "--out", str(out),
             "--delay-fs=-25150,25150"]
        ) == 0
        assert np.loadtxt(out / "sweep.txt").shape == (2, 8)


class TestTomoCommands:
    def test_simulate_then_reconstruct(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run(
            ["tomo", "simulate", "--config", config_path, "--out", str(out)]
        ) == 0
        table = read_count_table(out / "counts.txt")
        assert table.coincidences.shape == (36,)
        assert run(
            ["tomo", "reconstruct", "--config", config_path,
             "--out", str(out), "--counts", str(out / "counts.txt"),
             "--reference", str(out / "model_matrix.txt")]
        ) == 0
        rho = read_density_matrix(out / "rho.txt")
        truth = read_density_matrix(out / "model_matrix.txt")
        assert metrics.fidelity(rho, truth) > 0.98

    def test_simulate_deterministic(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out_a)])
        run(["tomo", "simulate", "--config", config_path, "--out", str(out_b)])
        assert (out_a / "counts.txt").read_bytes() == (
            out_b / "counts.txt"
        ).read_bytes()

    def test_seed_flag_changes_counts(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out_a)])
        run(
            ["tomo", "simulate", "--config", config_path, "--out", str(out_b),
             "--seed", "8"]
        )
        assert (out_a / "counts.txt").read_bytes() != (
            out_b / "counts.txt"
        ).read_bytes()

    @pytest.mark.parametrize(
        "config_line, flags",
        [("seed = -3", []), ("", ["--seed", "-1"])],
        ids=["file", "flag"],
    )
    def test_simulate_negative_seed_exit_code(self, tmp_path, capsys, config_line, flags):
        """A negative seed is a config error before any file is written."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + config_line + "\n")
        out = tmp_path / "out"
        code = run(["tomo", "simulate", "--config", str(cfg), "--out", str(out), *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]: seed")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_reconstruct_missing_row_exit_code(
        self, config_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        lines = (out / "counts.txt").read_text().splitlines()
        dropped = lines.pop(5)
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        code = run(
            ["tomo", "reconstruct", "--config", config_path,
             "--counts", str(broken)]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error[format]:")
        pair = dropped.split()[:2]
        assert f"{pair[0]},{pair[1]}" in err

    @pytest.mark.parametrize(
        "config_line, flags",
        [("delay_fs = nan", []),
         ("acquisition_s = nan", []),
         ("singles_rate_hz = inf", []),
         ("background_b = nan", []),
         ("", ["--background", "nan"])],
        ids=["delay_fs", "acquisition_s", "singles_rate_hz", "background_b",
             "background-flag"],
    )
    def test_simulate_non_finite_config_exit_code(
        self, tmp_path, capsys, config_line, flags
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + config_line + "\n")
        out = tmp_path / "out"
        code = run(
            ["tomo", "simulate", "--config", str(cfg), "--out", str(out), *flags]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]:")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "config_line, message",
        [("singles_rate_hz = 1e30", "cannot draw Poisson counts"),
         ("coincidence_rate_hz = 1e300", "cannot draw Poisson counts"),
         ("coincidence_rate_hz = 1e308", "calibrated pair rate is not finite"),
         ("pair_rate_hz = 1e308", "expected counts are not finite"),
         ("singles_rate_hz = -870", "singles rate must be non-negative"),
         ("gate_rate_hz = 0", "gate_rate_hz must be positive"),
         ("acquisition_s = 0", "acquisition_time must be positive and finite"),
         ("grid_points = 8", "grid too coarse across the pump bandwidth"),
         ("filter_width_nm = 0", "window width must be positive"),
         ("filter_center_nm = 10", "window extends to non-positive wavelengths"),
         ("group_index_signal = 0.5", "group_index_signal must be finite and >= 1")],
        ids=["singles-huge", "coincidence-huge", "coincidence-overflow",
             "pair-overflow", "singles-negative", "gate-zero",
             "acquisition-zero", "grid-too-coarse", "filter-width-zero",
             "window-below-zero", "group-index-below-one"],
    )
    def test_simulate_out_of_range_config_exit_code(
        self, tmp_path, capsys, config_line, message
    ):
        """A value that a check rejects writes nothing, model_matrix.txt
        included: the output directory is never made."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + config_line + "\n")
        out = tmp_path / "out"
        code = run(["tomo", "simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[config]: {message}")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    def test_simulate_empty_out_dir_exit_code(self, config_path, tmp_path, capsys,
                                              monkeypatch):
        """``--out ''`` names no directory: exit 2, and nothing is written
        to the working directory in its place."""
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = run(["tomo", "simulate", "--config", config_path, "--out", ""])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error[config]: [Errno 2] No such file or directory: ''\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "header",
        ["0 1900000", "120 0", "-120 1900000", "nan 1900000", "inf 1900000",
         "120 nan", "120 inf", "120 fast"],
    )
    def test_reconstruct_bad_header_exit_code(
        self, config_path, tmp_path, capsys, header
    ):
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        lines = (out / "counts.txt").read_text().splitlines()
        lines[0] = "# " + header
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(
            ["tomo", "reconstruct", "--config", config_path,
             "--counts", str(broken), "--out", str(out)]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[format]:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "row, fields, message",
        [
            (1, {3: 10**301, 4: 10**301}, "2: counts must lie in [0, 2^63 - 1]"),
            (1, {2: 10**23}, "2: counts must lie in [0, 2^63 - 1]"),
            (0, {1: 1e-200, 2: 1e-200},
             "1: acquisition time times gate rate is too small for finite accidentals"),
        ],
        ids=["singles-1e301", "coincidences-1e23", "rates-1e-200"],
    )
    @pytest.mark.parametrize("command", ["tomo-reconstruct", "metrics"])
    def test_count_table_out_of_range_exit_code(
        self, config_path, tmp_path, capsys, row, fields, message, command
    ):
        """Counts beyond int64, and rates whose product underflows so far
        that accidentals overflow, are data faults."""
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        lines = (out / "counts.txt").read_text().splitlines()
        parts = lines[row].split()
        for column, value in fields.items():
            parts[column] = str(value)
        lines[row] = " ".join(parts)
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = {
            "tomo-reconstruct": ["tomo", "reconstruct", "--config", config_path,
                                 "--out", str(out)],
            "metrics": ["metrics", "--matrix", str(out / "model_matrix.txt")],
        }[command]
        assert run([*argv, "--counts", str(broken)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[format]: {broken}:{message}\n"

    @pytest.mark.parametrize(
        "rows, commands, message",
        [
            (lambda c, acc, s: (0, *s), ["tomo-reconstruct"],
             "need at least one positive projection value"),
            (lambda c, acc, s: (min(c, int(acc)), *s), ["tomo-reconstruct"],
             "need at least one positive projection value"),
            (lambda c, acc, s: (c, 0, 0), ["tomo-reconstruct", "metrics"],
             "no cross-polarized setting with positive accidentals"),
        ],
        ids=["no-coincidences", "coincidences-at-or-below-accidentals", "no-singles"],
    )
    def test_count_table_without_signal_exit_code(
        self, config_path, tmp_path, capsys, rows, commands, message
    ):
        """A count table that parses but holds no signal is malformed data:
        one error line naming the file, exit 4, and no rho.txt."""
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        lines = (out / "counts.txt").read_text().splitlines()
        acquisition, gate = map(float, lines[0][1:].split())
        for i, line in enumerate(lines[1:], start=1):
            a, b, *counts = line.split()
            c, s_a, s_b = map(int, counts)
            changed = rows(c, s_a * s_b / (gate * acquisition), (s_a, s_b))
            lines[i] = " ".join([a, b, *map(str, changed)])
        empty = tmp_path / "empty.txt"
        empty.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        argv = {
            "tomo-reconstruct": ["tomo", "reconstruct", "--config", config_path,
                                 "--out", str(out)],
            "metrics": ["metrics", "--matrix", str(out / "model_matrix.txt")],
        }
        for command in commands:
            assert run([*argv[command], "--counts", str(empty)]) == 4, command
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error[format]: {empty}: {message}\n"
        assert not (out / "rho.txt").exists()

    def test_family_without_counts_exit_code(self, config_path, tmp_path, capsys):
        """A count table whose H/V family holds no coincidences leaves its
        visibility undefined: one error line naming the file, exit 4, and
        no rho.txt."""
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        lines = (out / "counts.txt").read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            a, b, _, s_a, s_b = line.split()
            if {a, b} <= {"H", "V"}:
                lines[i] = " ".join([a, b, "0", s_a, s_b])
        empty = tmp_path / "empty.txt"
        empty.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["tomo", "reconstruct", "--config", config_path,
                    "--out", str(out), "--counts", str(empty)])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[format]: {empty}: family HV has no counts\n"
        assert not (out / "rho.txt").exists()
        assert not (out / "metrics.txt").exists()


class TestMetricsCommand:
    def test_report(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        capsys.readouterr()  # discard the simulate status line
        assert run(
            ["metrics", "--matrix", str(out / "model_matrix.txt"),
             "--reference", str(out / "model_matrix.txt"),
             "--counts", str(out / "counts.txt")]
        ) == 0
        report = dict(
            line.split() for line in capsys.readouterr().out.splitlines()
        )
        assert float(report["fidelity"]) == pytest.approx(1.0)
        assert float(report["car"]) > 1.0

    def test_missing_file_exit_code(self, capsys):
        assert run(["metrics", "--matrix", "/nonexistent/rho.txt"]) == 2
        assert capsys.readouterr().err.startswith("error[config]:")

    @pytest.mark.parametrize(
        "row", ["0 0 abc 0", "x 0 1 0", "0 0 nan 0", "0 0 1 inf"],
        ids=["value", "index", "nan", "inf"],
    )
    def test_malformed_matrix_exit_code(self, tmp_path, capsys, row):
        rho = jointstate.density_matrix(0.5, 0.5, 0.3 + 0.1j)
        path = tmp_path / "rho.txt"
        jointstate.write_density_matrix(path, rho)
        lines = path.read_text().splitlines()
        lines[0] = row
        path.write_text("\n".join(lines) + "\n")
        assert run(["metrics", "--matrix", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[format]:")
        assert len(captured.err.splitlines()) == 1


    @pytest.mark.parametrize(
        "changes, message",
        [({(0, 1): 0.1}, "density matrix is not Hermitian"),
         ({(0, 0): 0.5}, "density matrix trace is not 1"),
         ({(1, 2): 0.6, (2, 1): 0.6},
          "density matrix is not positive semidefinite")],
        ids=["non-hermitian", "trace", "negative-eigenvalue"],
    )
    @pytest.mark.parametrize(
        "command", ["metrics-matrix", "metrics-reference", "reconstruct-reference"]
    )
    def test_non_state_matrix_file_exit_code(
        self, config_path, tmp_path, capsys, changes, message, command
    ):
        """A file that parses but holds no physical state is malformed
        data: one error line naming the file, exit 4."""
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        good = str(out / "model_matrix.txt")
        elements = np.diag([0.0, 0.5, 0.5, 0.0])
        for index, value in changes.items():
            elements[index] = value
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "".join(
                "%d %d %.17g 0\n" % (*index, v)
                for index, v in np.ndenumerate(elements)
            )
        )
        capsys.readouterr()
        argv = {
            "metrics-matrix": ["metrics", "--matrix", str(bad)],
            "metrics-reference": ["metrics", "--matrix", good,
                                  "--reference", str(bad)],
            "reconstruct-reference": [
                "tomo", "reconstruct", "--config", config_path, "--out", str(out),
                "--counts", str(out / "counts.txt"), "--reference", str(bad)],
        }[command]
        assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[format]: {bad}: {message}\n"
        assert not (out / "rho.txt").exists()

    @pytest.mark.parametrize("with_counts", [False, True], ids=["alone", "with-counts"])
    def test_state_fault_is_not_the_count_table_fault(
        self, config_path, tmp_path, capsys, with_counts
    ):
        """A matrix within the reader's tolerances whose purity has an
        imaginary part is a numeric failure of the state, exit 3, with or
        without --counts; it is not a fault of the count table."""
        out = tmp_path / "out"
        run(["tomo", "simulate", "--config", config_path, "--out", str(out)])
        tilted = tmp_path / "tilted.txt"
        tilted.write_text(
            "".join(
                "%d %d 0.25 %.17g\n" % (r, c, 0.9e-12 if r > c else 0.0)
                for r in range(4) for c in range(4)
            )
        )
        capsys.readouterr()
        argv = ["metrics", "--matrix", str(tilted)]
        if with_counts:
            argv += ["--counts", str(out / "counts.txt")]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error[numeric]: purity has a non-negligible imaginary part\n"
        )


class TestFitCommand:
    @pytest.mark.parametrize(
        "observations, span",
        [("0 0.3 0.1\n25.9 0.35 0.05\n3000 0.2 0\n", "0 to 3000"),
         ("900 0.3 0.1\n910 0.35 0.05\n", "900 to 910")],
        ids=["too-wide", "too-far"],
    )
    def test_observations_outside_the_sweep_window_exit_code(
        self, config_path, tmp_path, capsys, observations, span
    ):
        """Observations inside the alias window that no scanned offset
        shifts into the -400 to 400 fs sweep window end in one error line;
        they are not fitted to the sweep's boundary values."""
        obs = tmp_path / "obs.txt"
        obs.write_text(observations)
        assert run(["fit", "--config", config_path, "--observations", str(obs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[config]: observations at {span} fs: no time offset within"
            " +-400 fs shifts them all into the sweep window -400 to 400 fs\n"
        )

    def test_recovers_synthetic_model(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        run(
            ["sweep", "--config", config_path, "--out", str(out),
             "--delay-fs=-30,0,45", "--degrade", "0.8,20"]
        )
        rows = np.loadtxt(out / "sweep.txt")
        obs = tmp_path / "obs.txt"
        obs.write_text(
            "\n".join("%g %.17g %.17g" % (r[0], r[1], r[2]) for r in rows)
            + "\n"
        )
        assert run(
            ["fit", "--config", config_path, "--observations", str(obs)]
        ) == 0
        report = {}
        for line in capsys.readouterr().out.splitlines():
            parts = line.split()
            if len(parts) == 2:
                report[parts[0]] = float(parts[1])
        assert report["amplitude_scale"] == pytest.approx(0.8, abs=0.01)
        assert report["time_offset_fs"] == pytest.approx(20.0, abs=0.5)

    def test_residuals_are_exact(self, config_path, tmp_path, capsys):
        """Each printed residual is s D(tau - t0) minus the observation to
        the printed precision, for unsorted and repeated delays."""
        config = RunConfig.load(config_path)
        amps = jointstate.post_select(
            build_jsa(config.pdc_model(), config.grid()), config.splitter()
        )
        truth = jointstate.DegradationModel(
            amplitude_scale=0.8, time_offset=20.3e-15
        )
        taus_fs = [45.0, -30.0, 13.7, 45.0]
        observed = [
            jointstate.d_parameter(amps, tau * 1e-15, truth) + complex(0.01 * k, -0.02)
            for k, tau in enumerate(taus_fs)
        ]
        obs = tmp_path / "obs.txt"
        obs.write_text(
            "".join(
                "%.17g %.17g %.17g\n" % (tau, d.real, d.imag)
                for tau, d in zip(taus_fs, observed)
            )
        )
        assert run(
            ["fit", "--config", config_path, "--observations", str(obs)]
        ) == 0
        lines = [line.split() for line in capsys.readouterr().out.splitlines()]
        report = {parts[0]: float(parts[1]) for parts in lines if len(parts) == 2}
        fitted = jointstate.DegradationModel(
            amplitude_scale=report["amplitude_scale"],
            time_offset=report["time_offset_fs"] * 1e-15,
        )
        residuals = [parts for parts in lines if parts[0] == "residual"]
        assert [float(parts[2]) for parts in residuals] == taus_fs
        for parts, tau, d in zip(residuals, taus_fs, observed):
            exact = jointstate.d_parameter(amps, tau * 1e-15, fitted) - d
            assert float(parts[4]) == pytest.approx(exact.real, rel=1e-5, abs=1e-9)
            assert float(parts[6]) == pytest.approx(exact.imag, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("row", ["nan 0.3 0.1", "10 inf 0.1", "10 0.3 nan"])
    def test_non_finite_observation_exit_code(
        self, config_path, tmp_path, capsys, row
    ):
        obs = tmp_path / "obs.txt"
        obs.write_text(f"0 0.3 0.1\n{row}\n")
        assert run(
            ["fit", "--config", config_path, "--observations", str(obs)]
        ) == 4
        assert capsys.readouterr().err.startswith("error[format]:")


#: Each input file's command: argv and config line, ``{bad}`` the file.
INPUT_FILES = {
    "jsa": (["sweep"], "jsa_file = {bad}"),
    "splitter-table": (["sweep"], "splitter_table_h = {bad}"),
    "count-table": (["tomo", "reconstruct", "--counts", "{bad}"], ""),
    "density-matrix": (["metrics", "--matrix", "{bad}"], None),
    "observations": (["fit", "--observations", "{bad}"], ""),
    "config": (["sweep", "--config", "{bad}"], None),
}


def input_file_argv(kind, bad, tmp_path):
    """The command that reads the input file ``bad`` of ``kind``."""
    argv, config_line = INPUT_FILES[kind]
    argv = [arg.format(bad=bad) for arg in argv]
    if config_line is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + config_line.format(bad=bad) + "\n")
        argv += ["--config", str(cfg), "--out", str(tmp_path / "out")]
    return argv


def _flat_jsa_text(n=16):
    """A JSA table without a sidecar: a flat normalized amplitude on an
    n-point grid over the configured filter window."""
    grid = FrequencyGrid.centered(1535.2e-9, 40e-9, n)
    head = "# %d %d %.17g %.17g %.17g %.17g\n" % (
        n, n, grid.start, grid.d_omega, grid.start, grid.d_omega
    )
    return head + ("%.17g 0\n" % (1.0 / (n * grid.d_omega))) * (n * n)


#: A valid file of each kind (the JSA table without a sidecar), and the
#: line and field the faults below replace.
VALID_FILES = {
    "jsa": (_flat_jsa_text(), 3, 0),
    "jsa-header": (_flat_jsa_text(), 1, 3),
    "splitter-table": ("# lambda_nm T\n1500 0.1\n1535 0.5\n1570 0.9\n", 3, 1),
    "count-table": (
        "# 120 1900000\n"
        + "".join(f"{a} {b} 10 870 870\n" for a, b in PROJECTION_PAIRS),
        3, 2,
    ),
    "density-matrix": (
        "".join(f"{r} {c} {0.25 * (r == c)} 0\n" for r in range(4) for c in range(4)),
        6, 2,
    ),
    "observations": ("0 0.3 0.1\n25.9 0.35 0.05\n", 2, 1),
}


#: The number faults every input meets: text that is not a number, two
#: non-finite floats, and two that Python's int and float read but
#: np.loadtxt does not.
NUMBER_FAULTS = {
    "non-numeric": "abc",
    "nan": "nan",
    "inf": "inf",
    "underscore": "1_500",
    "arabic-indic": "\u0661\u0665\u0660\u0660",
}


_JSA_HEAD, _JSA_BODY = _flat_jsa_text().split("\n", 1)
_, _, _JSA_START, _JSA_STEP, _, _ = _JSA_HEAD[1:].split()

#: A file that every reader's grammar accepts but its own checks reject:
#: its kind, its text, and its error line after ``error[format]: <path>``.
CONTENT_FAULTS = {
    "splitter-unsorted": (
        "splitter-table", "1570 0.9\n1500 0.1\n", ": wavelengths must be increasing"
    ),
    "splitter-above-one": (
        "splitter-table", "1500 0.1\n1570 1.5\n", ": transmissions must lie in [0, 1]"
    ),
    "splitter-one-row": (
        "splitter-table", "1500 0.1\n", ": need an (n, 2) array with n >= 2"
    ),
    "matrix-bad-index": (
        "density-matrix",
        VALID_FILES["density-matrix"][0].replace("0 1 0.0 0", "0 4 0.0 0"),
        ":2: bad or duplicate index",
    ),
    "matrix-duplicate-index": (
        "density-matrix",
        VALID_FILES["density-matrix"][0].replace("0 1 0.0 0", "0 0 0.25 0"),
        ":2: bad or duplicate index",
    ),
    "jsa-one-point": (
        "jsa", f"# 1 1 {_JSA_START} {_JSA_STEP} {_JSA_START} {_JSA_STEP}\n0 0\n",
        ":1: grid needs at least 2 points, got 1",
    ),
    "jsa-zero-step": (
        "jsa", f"# 16 16 {_JSA_START} 0 {_JSA_START} 0\n" + _JSA_BODY,
        ":1: grid step must be positive, got 0.0",
    ),
    "jsa-axes-differ": (
        "jsa", f"# 16 16 {_JSA_START} {_JSA_STEP} 1e15 {_JSA_STEP}\n" + _JSA_BODY,
        ":1: signal and idler axes must be identical",
    ),
    "count-unknown-label": (
        "count-table", VALID_FILES["count-table"][0].replace("H H", "H X", 1),
        ":2: unknown projection label 'X'",
    ),
    "observations-one-row": ("observations", "0 0.3 0.1\n", ": need at least 2 observations"),
    "observations-comments-only": (
        "observations", "# tau_fs re_D im_D\n", ": need at least 2 observations"
    ),
    "observations-all-zero": (
        "observations", "0 0 0\n25.9 0 -0\n", ": all observed coherences are zero"
    ),
}


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "kind, category, code",
        [("jsa", "format", 4), ("splitter-table", "format", 4),
         ("count-table", "format", 4), ("density-matrix", "format", 4),
         ("observations", "format", 4), ("config", "config", 2)],
        ids=["jsa", "splitter-table", "count-table", "density-matrix",
             "observations", "config"],
    )
    def test_non_utf8_byte_is_one_error_line(self, tmp_path, capsys, kind, category, code):
        """A 0xff byte in any input file ends in the file's error category,
        not in a UnicodeDecodeError traceback."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 0\n\xff\n")
        assert run(input_file_argv(kind, bad, tmp_path)) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[{category}]: {bad}: not UTF-8 text (invalid start byte)\n"
        )

    def test_non_utf8_byte_deep_in_a_jsa_table(self, tmp_path, capsys):
        """A 0xff byte that np.loadtxt meets, past the header's first block
        of text, ends as the same fault as one in the header."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(_flat_jsa_text(32).encode() + b"\xff\n")
        assert run(input_file_argv("jsa", bad, tmp_path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[format]: {bad}: not UTF-8 text (invalid start byte)\n"
        )

    @pytest.mark.parametrize("kind", list(VALID_FILES))
    def test_valid_file_runs(self, tmp_path, capsys, kind):
        """The files the faults below start from are read without error."""
        text, _, _ = VALID_FILES[kind]
        good = tmp_path / "good.txt"
        good.write_text(text)
        assert run(input_file_argv(kind.removesuffix("-header"), good, tmp_path)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "fault", [*NUMBER_FAULTS.values(), "width"], ids=[*NUMBER_FAULTS, "width"]
    )
    @pytest.mark.parametrize("kind", list(VALID_FILES))
    def test_bad_field_is_one_error_line(self, tmp_path, capsys, kind, fault):
        """Every data file meets the same fault with the same answer: one
        error[format] line that names the file, and its line where the
        file's own reader reads it (all but np.loadtxt's JSA body), exit 4."""
        text, line, field = VALID_FILES[kind]
        lines = text.splitlines()
        fields = lines[line - 1].split()
        if fault == "width":
            fields.append("0")
        else:
            fields[field + (fields[0] == "#")] = fault
        lines[line - 1] = " ".join(fields)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert run(input_file_argv(kind.removesuffix("-header"), bad, tmp_path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        where = ": " if kind == "jsa" else f":{line}: "
        assert captured.err.startswith(f"error[format]: {bad}{where}")
        assert len(captured.err.splitlines()) == 1


    @pytest.mark.parametrize("fault", list(CONTENT_FAULTS))
    def test_content_fault_is_one_exact_line(self, tmp_path, capsys, fault):
        """A file that parses but fails its own checks ends in one
        error[format] line that names the file, exit 4, before any output.
        (The density matrix's state checks and the count table's signal
        checks are pinned in TestMetricsCommand and TestTomoCommands.)"""
        kind, text, message = CONTENT_FAULTS[fault]
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run(input_file_argv(kind, bad, tmp_path)) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[format]: {bad}{message}\n"
        assert not (tmp_path / "out").exists()


#: Each numeric flag: the command that takes it, ``{}`` the faulty text,
#: and the start of its error line.
NUMERIC_FLAGS = {
    "seed": (["tomo", "simulate", "--seed", "{}"], "--seed: bad value for seed: "),
    "background": (
        ["tomo", "simulate", "--background", "{}"],
        "--background: bad value for background_b: ",
    ),
    "degrade-scale": (
        ["sweep", "--degrade", "{},4"], "--degrade: bad value for degrade_scale: "
    ),
    "degrade-offset": (
        ["sweep", "--degrade", "0.75,{}"],
        "--degrade: bad value for degrade_offset_fs: ",
    ),
    "delay-fs": (["sweep", "--delay-fs=0,{},25.9"], "--delay-fs: "),
}


class TestMalformedNumbers:
    """The configuration file and the numeric flags read numbers by the data
    files' grammar; a fault is one error[config] line that names the key or
    the flag, exit 2, before any output."""

    def assert_one_config_error(self, capsys, argv, out, start):
        assert run([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[config]: {start}")
        assert len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault", list(NUMBER_FAULTS.values()), ids=list(NUMBER_FAULTS)
    )
    @pytest.mark.parametrize(
        "key", [key for key, (kind, _) in SCHEMA.items() if kind in (int, float, bool)]
    )
    def test_bad_config_value(self, tmp_path, capsys, key, fault):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + f"{key} = {fault}\n")
        lineno = CONFIG_TEXT.count("\n") + 1
        self.assert_one_config_error(
            capsys, ["sweep", "--config", str(cfg)], tmp_path / "out",
            f"{cfg}:{lineno}: bad value for {key}: ",
        )

    @pytest.mark.parametrize(
        "fault", list(NUMBER_FAULTS.values()), ids=list(NUMBER_FAULTS)
    )
    @pytest.mark.parametrize("flag", list(NUMERIC_FLAGS))
    def test_bad_flag_value(self, config_path, tmp_path, capsys, flag, fault):
        argv, start = NUMERIC_FLAGS[flag]
        argv = [arg.format(fault) for arg in argv] + ["--config", config_path]
        self.assert_one_config_error(capsys, argv, tmp_path / "out", start)

    @pytest.mark.parametrize(
        "argv, config_line, err",
        [(["sweep"], "grid_points = 25_6",
          "{cfg}:6: bad value for grid_points: not a number: '25_6'"),
         (["sweep", "--delay-fs=1_0,2_0"], "", "--delay-fs: not a number: '1_0'"),
         (["sweep", "--degrade", "0.7_6,2_1"], "",
          "--degrade: bad value for degrade_scale: not a number: '0.7_6'"),
         (["tomo", "simulate", "--seed", "1_0"], "",
          "--seed: bad value for seed: not a number: '1_0'"),
         (["tomo", "simulate", "--background", "0.0_1"], "",
          "--background: bad value for background_b: not a number: '0.0_1'"),
         (["tomo", "simulate", "--seed", "abc"], "",
          "--seed: bad value for seed: invalid literal for int() with base 10: 'abc'"),
         (["sweep"], "transmit_long = maybe",
          "{cfg}:6: bad value for transmit_long: not a boolean: 'maybe'")],
        ids=["grid-points", "delay-fs", "degrade", "seed", "background", "seed-abc",
             "transmit-long"],
    )
    def test_error_names_the_bad_field(self, tmp_path, capsys, argv, config_line, err):
        """The error quotes the first bad field, not the flag's whole text."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + config_line + "\n")
        out = tmp_path / "out"
        assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[config]: {err.format(cfg=cfg)}\n"
        assert not out.exists()


#: The fuzzed runs' configuration; FUZZ_GRID follows every mutated copy,
#: so that no mutation can raise the grid or the sweep.
FUZZ_CONFIG = (
    "edge_h_nm = 1533.55\n"
    "edge_v_nm = 1536.85\n"
    "delay_fs = 25.9\n"
    "acquisition_s = 120\n"
    "singles_rate_hz = 870\n"
    "background_b = 0.0125\n"
    "seed = 7\n"
)
FUZZ_GRID = "\ngrid_points = 48\nfilter_width_nm = 8\ntau_points = 21\n"

#: Fields a mutation puts in a file, drawn first from the faults the
#: readers must meet.
_FIELDS = st.one_of(
    st.sampled_from(
        ["nan", "inf", "-inf", "1_500", "١٥٠٠", "", "#", "x",
         "=", "0", "-0", "-1", "0.5", "1e400", "1e-400", "1e308", str(2**63 - 1),
         str(2**63), "H", "D+"]
    ),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(0, 2**63 - 1).map(str),
    st.floats().map(repr),
    st.floats(-2, 2).map(repr),
    st.text(max_size=4),
)

#: (operation, line or byte position, field or byte / 25, new field) of one
#: mutation.
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "drop", "repeat", "insert", "truncate", "byte"]),
        st.integers(0, 10**6),
        st.integers(0, 10),
        _FIELDS,
    ),
    min_size=1,
    max_size=2,
)


def _mutate(text, mutations) -> bytes:
    """The bytes of ``text`` after ``mutations``: edits of its lines, ended
    by the first cut of the text or byte put into it."""
    lines = text.split("\n")
    data = None
    for op, where, field, new in mutations:
        if data is not None:
            break
        i = where % len(lines)
        if op == "replace":
            fields = lines[i].split() or [""]
            fields[field % len(fields)] = new
            lines[i] = " ".join(fields)
        elif op == "drop":
            del lines[i]
            lines = lines or [""]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, new)
        else:
            data = "\n".join(lines).encode()
            cut = where % (len(data) + 1)
            data = data[:cut] + (bytes([25 * field]) + data[cut:] if op == "byte" else b"")
    return data if data is not None else "\n".join(lines).encode()


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Valid files of every kind on a 48-point grid, as text."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "run.cfg"
    cfg.write_text(FUZZ_CONFIG + FUZZ_GRID)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["jsa", "--config", str(cfg), "--out", str(root)]) == 0
        assert main(["tomo", "simulate", "--config", str(cfg), "--out", str(root)]) == 0
    lam_nm = np.linspace(1500.0, 1570.0, 15)
    splitter = "".join(
        "%.17g %.17g\n" % (lam, 1 / (1 + np.exp(-(lam - 1535.2))))
        for lam in lam_nm
    )
    return {
        "config": FUZZ_CONFIG,
        "jsa": (root / "jsa.txt").read_text(),
        "splitter-table": "# lambda_nm T\n" + splitter,
        "count-table": (root / "counts.txt").read_text(),
        "density-matrix": (root / "model_matrix.txt").read_text(),
        "observations": "0 0.3 0.1\n25.9 0.35 0.05\n-30 0.2 0.02\n",
    }


def _fuzz_argv(kind, path, root, files):
    """The command that reads the mutated file at ``path`` of ``kind``,
    with valid files of the other kinds in ``root``."""
    for other in ("count-table", "density-matrix"):
        (root / other).write_text(files[other])
    lines = {"jsa": f"jsa_file = {path}\n", "splitter-table": f"splitter_table_h = {path}\n"}
    cfg = root / "run.cfg"
    if kind == "config":
        cfg = path
    else:
        cfg.write_text(FUZZ_CONFIG + lines.get(kind, "") + FUZZ_GRID)
    common = ["--config", str(cfg), "--out", str(root / "out")]
    return {
        "config": ["tomo", "simulate", *common],
        "jsa": ["sweep", *common, "--delay-fs=0,25.9"],
        "splitter-table": ["sweep", *common, "--delay-fs=0,25.9"],
        "count-table": ["tomo", "reconstruct", *common, "--counts", str(path),
                        "--reference", str(root / "density-matrix")],
        "density-matrix": ["metrics", "--matrix", str(path),
                           "--reference", str(root / "density-matrix"),
                           "--counts", str(root / "count-table")],
        "observations": ["fit", *common, "--observations", str(path)],
    }[kind]


class TestFuzzedInput:
    @pytest.mark.parametrize(
        "kind",
        ["config", "jsa", "splitter-table", "count-table", "density-matrix",
         "observations"],
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mutations=_MUTATIONS)
    def test_mutated_file_ends_cleanly(self, fuzz_files, kind, mutations):
        """A mutated input file ends in exit 0 with finite output, or in one
        error line with a documented exit code; never in a traceback.  The
        JSA table has no sidecar, so its text is parsed."""
        data = _mutate(fuzz_files[kind], mutations)
        if kind == "config":
            data += FUZZ_GRID.encode()
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            path = root / "mutated.txt"
            path.write_bytes(data)
            argv = _fuzz_argv(kind, path, root, fuzz_files)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3, 4)
        errors = err.getvalue().splitlines()
        assert len(errors) == (code != 0)
        if code:
            assert errors[0].startswith("error[") and out.getvalue() == ""
        for token in out.getvalue().split():
            try:
                value = float(token)
            except ValueError:
                continue
            assert np.isfinite(value), out.getvalue()
