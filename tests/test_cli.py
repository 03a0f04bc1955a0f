"""End-to-end tests of the command-line front-end."""

import numpy as np
import pytest

from polentsim import metrics
from polentsim.cli import main
from polentsim.jointstate import read_density_matrix
from polentsim.spectral import read_jsa
from polentsim.tomography import read_count_table

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
        assert float(report["discarded_fraction"]) < 0.05

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

    def test_listed_delays_match_uniform_sweep(self, tmp_path):
        config = tmp_path / "small.cfg"
        config.write_text(
            CONFIG_TEXT
            + "tau_min_fs = -200\ntau_max_fs = 250\ntau_points = 10\n"
        )
        out_u, out_l = tmp_path / "uniform", tmp_path / "listed"
        assert run(["sweep", "--config", str(config), "--out", str(out_u)]) == 0
        uniform = np.loadtxt(out_u / "sweep.txt")
        delays = ",".join("%.17g" % t for t in uniform[::-1, 0])
        assert run(
            ["sweep", "--config", str(config), "--out", str(out_l),
             f"--delay-fs={delays}"]
        ) == 0
        listed = np.loadtxt(out_l / "sweep.txt")
        assert listed.shape == uniform.shape
        # the window is wide enough that the principal value would wrap
        assert np.abs(uniform[:, 7]).max() > np.pi
        # re_D, im_D and the anchored, unwrapped phase_rad
        for col in (1, 2, 7):
            assert np.max(np.abs(listed[:, col] - uniform[:, col])) < 1e-12

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


class TestTomoCommands:
    def test_simulate_then_reconstruct(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run(
            ["tomo", "simulate", "--config", config_path, "--out", str(out)]
        ) == 0
        table = read_count_table(out / "counts.txt")
        assert len(table.records) == 36
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


class TestFitCommand:
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
