"""End-to-end tests of the command-line front-end."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polentsim
from polentsim import jointstate, metrics
from polentsim.cli import main
from polentsim.config import RunConfig
from polentsim.jointstate import read_density_matrix
from polentsim.spectral import (
    C,
    FrequencyGrid,
    build_jsa,
    read_jsa,
)
from polentsim.tomography import read_count_table
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

    def test_import_round_trip_bit_exact(self, config_path, tmp_path):
        out = tmp_path / "out"
        run(["jsa", "--config", config_path, "--out", str(out)])
        first = (out / "jsa.txt").read_bytes()
        cfg2 = tmp_path / "import.cfg"
        cfg2.write_text(CONFIG_TEXT + f"jsa_file = {out / 'jsa.txt'}\n")
        out2 = tmp_path / "out2"
        assert run(["jsa", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out2 / "jsa.txt").read_bytes() == first

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

    @pytest.mark.parametrize("rest", ["", "# no rows\n\n"], ids=["header-only", "comment-only"])
    def test_table_without_rows_exit_code(self, config_path, tmp_path, rest):
        """A JSA table with no rows and no sidecar ends in one error line
        and no numpy warning, in a process of its own, whose warnings
        filters are Python's defaults."""
        out = tmp_path / "out"
        run(["jsa", "--config", config_path, "--out", str(out)])
        jsa = out / "jsa.txt"
        jsa.write_text(jsa.read_text().split("\n", 1)[0] + "\n" + rest)
        (out / "jsa.txt.npz").unlink()
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
        assert done.stderr == "error[format]: expected 65536 complex rows, found 0\n"

    @pytest.mark.parametrize("command", ["sweep", "jsa"])
    @pytest.mark.parametrize(
        "rows",
        ["1500 0.1\n1535 nan\n1570 0.9\n", "1570 0.9\n1500 0.1\n",
         "1500 0.1\n1570 1.5\n"],
        ids=["nan-value", "unsorted", "above-one"],
    )
    def test_bad_splitter_table_exit_code(self, tmp_path, capsys, rows, command):
        table = tmp_path / "edge_h.txt"
        table.write_text(rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEXT + f"splitter_table_h = {table}\n")
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[format]: {table}: ")
        assert len(captured.err.splitlines()) == 1

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
        assert not (out / "counts.txt").exists()

    @pytest.mark.parametrize(
        "config_line",
        ["singles_rate_hz = 1e30", "coincidence_rate_hz = 1e300",
         "coincidence_rate_hz = 1e308", "pair_rate_hz = 1e308",
         "singles_rate_hz = -870", "gate_rate_hz = 0", "acquisition_s = 0",
         "grid_points = 8"],
        ids=["singles-huge", "coincidence-huge", "coincidence-overflow",
             "pair-overflow", "singles-negative", "gate-zero",
             "acquisition-zero", "grid-too-coarse"],
    )
    def test_simulate_out_of_range_config_exit_code(
        self, tmp_path, capsys, config_line
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG_TEXT + config_line + "\n")
        out = tmp_path / "out"
        code = run(["tomo", "simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[config]:")
        assert len(captured.err.splitlines()) == 1
        assert not (out / "counts.txt").exists()

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

    def test_too_few_rows_is_usage_error(self, config_path, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        obs.write_text("0 0.3 0.1\n")
        assert run(
            ["fit", "--config", config_path, "--observations", str(obs)]
        ) == 2
        assert capsys.readouterr().err.startswith("error[config]:")

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


class TestUndecodableInput:
    @pytest.mark.parametrize(
        "argv, config_line, category, code",
        [(["sweep"], "jsa_file = {bad}", "format", 4),
         (["sweep"], "splitter_table_h = {bad}", "format", 4),
         (["tomo", "reconstruct", "--counts", "{bad}"], "", "format", 4),
         (["metrics", "--matrix", "{bad}"], None, "format", 4),
         (["fit", "--observations", "{bad}"], "", "format", 4),
         (["sweep", "--config", "{bad}"], None, "config", 2)],
        ids=["jsa", "splitter-table", "count-table", "density-matrix",
             "observations", "config"],
    )
    def test_non_utf8_byte_is_one_error_line(
        self, tmp_path, capsys, argv, config_line, category, code
    ):
        """A 0xff byte in any input file ends in the file's error category,
        not in a UnicodeDecodeError traceback."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 0\n\xff\n")
        argv = [arg.format(bad=bad) for arg in argv]
        if config_line is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(CONFIG_TEXT + config_line.format(bad=bad) + "\n")
            argv += ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert run(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error[{category}]: {bad}: not UTF-8 text (invalid start byte)\n"
        )
