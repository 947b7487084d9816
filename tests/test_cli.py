"""Command-line interface: subcommands, outputs and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zns
from zns.cli import main
from zns.config import load_config
from zns.forcing import ForcingSpec
from zns.harness import TRIAD_COLUMNS, ExperimentConfig
from zns.lattice import Domain, parity_error, read_snapshot, write_snapshot

TINY_CONFIG = """
# small benchmark setup
n1 = 16
n2 = 16
mu = 1.0
epsilon = 0.2, 0.1
h = 0.01
t_spin = 10.0
t_end = 12.0
seed = 3
omega0_norm = 0.5
forcing.kind = steady
forcing.mode = 0,1,1.0,0.0
forcing.mode = 1,1,0.5,0.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestTriadCheck:
    def test_scan_passes_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "triads"
        assert main(["triad-check", "--max-k", "6", "--out", str(out)]) == 0
        lines = (out / "triads.csv").read_text().splitlines()
        assert lines[0] == ",".join(TRIAD_COLUMNS)
        residuals = [float(l.split(",")[-1]) for l in lines[1:]]
        assert max(residuals) < 1e-10 * (2 * np.pi) ** 2
        assert "max residual" in capsys.readouterr().out


class TestSimulate:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "missing.cfg")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        # The last two configs are valid but for their last key, a removed option.
        for text in ("nope = 3\n", TINY_CONFIG + "reproject_every = 100\n",
                     TINY_CONFIG + "advection = false\n"):
            path.write_text(text)
            assert main(["simulate", "--config", str(path)]) == 1
            assert "unknown config key" in capsys.readouterr().err

    def test_run_and_resume(self, config_file, tmp_path):
        out1 = tmp_path / "run1"
        assert main([
            "simulate", "--config", str(config_file), "--out", str(out1),
            "--quiet",
        ]) == 0
        assert (out1 / "diagnostics.csv").exists()
        snap = out1 / "state_final.zns"
        w, eps, mu, t = read_snapshot(snap)
        assert t == pytest.approx(12.0)
        out2 = tmp_path / "run2"
        assert main([
            "simulate", "--config", str(config_file), "--out", str(out2),
            "--resume", str(snap), "--quiet",
        ]) == 0

    def test_epsilon_disagreeing_with_resume_exits_1(self, config_file, tmp_path, capsys):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        code = main([
            "simulate", "--config", str(config_file), "--out", str(tmp_path / "run2"),
            "--resume", str(out1 / "state_final.zns"), "--epsilon", "0.1", "--quiet",
        ])
        assert code == 1
        assert "does not match snapshot epsilon" in capsys.readouterr().err

    def test_non_real_snapshot_exits_1(self, config_file, tmp_path, capsys):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        w, eps, mu, t = read_snapshot(out1 / "state_final.zns")
        w.coeffs[1, -1] *= 1.0 + 1e-6  # one m1 < 0 coefficient off its mirror
        write_snapshot(tmp_path / "bad.zns", w, eps, mu, t)
        code = main(["simulate", "--config", str(config_file), "--out", str(tmp_path / "run2"),
                     "--resume", str(tmp_path / "bad.zns"), "--quiet"])
        assert code == 1
        assert "not a real field" in capsys.readouterr().err

    @pytest.mark.parametrize("size,code", [(1e-6, 1), (1e-14, 0)], ids=["not-odd", "nearly-odd"])
    def test_snapshot_parity_checked_and_projected(self, config_file, tmp_path, capsys, size,
                                                   code):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        w, eps, mu, t = read_snapshot(out1 / "state_final.zns")
        even = size * np.abs(w.coeffs).max()
        w.coeffs[2, 1] += even  # mode (1, 2) and its mirror: real, even in y
        w.coeffs[-2, -1] += even
        write_snapshot(tmp_path / "snap.zns", w, eps, mu, t)
        out2 = tmp_path / "run2"
        assert main(["simulate", "--config", str(config_file), "--out", str(out2),
                     "--resume", str(tmp_path / "snap.zns"), "--quiet"]) == code
        if code:
            assert "not odd in y" in capsys.readouterr().err
        else:
            final, *_ = read_snapshot(out2 / "state_final.zns")
            assert parity_error(final) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_snapshot_exits_1(self, config_file, tmp_path, capsys, value):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        w, eps, mu, t = read_snapshot(out1 / "state_final.zns")
        w.coeffs[2, 1] = value
        write_snapshot(tmp_path / "bad.zns", w, eps, mu, t)
        out2 = tmp_path / "run2"
        code = main(["simulate", "--config", str(config_file), "--out", str(out2),
                     "--resume", str(tmp_path / "bad.zns"), "--quiet"])
        assert code == 1
        assert "non-finite coefficients" in capsys.readouterr().err
        assert not (out2 / "state_final.zns").exists()

    @pytest.mark.parametrize("defect", ["nan", "not-odd", "mu"])
    def test_rejected_resume_leaves_no_output_directory(self, config_file, tmp_path, defect):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        w, eps, mu, t = read_snapshot(out1 / "state_final.zns")
        if defect == "nan":
            w.coeffs[2, 1] = np.nan
        elif defect == "not-odd":
            w.coeffs[0, 1] = w.coeffs[0, -1] = 1.0
        else:
            mu *= 2.0
        write_snapshot(tmp_path / "bad.zns", w, eps, mu, t)
        out2 = tmp_path / "nested" / "run2"
        code = main(["simulate", "--config", str(config_file), "--out", str(out2),
                     "--resume", str(tmp_path / "bad.zns"), "--quiet"])
        assert code == 1
        assert not out2.exists() and not out2.parent.exists()

    @pytest.mark.parametrize("every", ["0", "-0.1", "nan"])
    def test_bad_snapshot_every_exits_1(self, config_file, tmp_path, capsys, every):
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config_file), "--out", str(out),
                     f"--snapshot-every={every}", "--quiet"])
        assert code == 1
        assert "snapshot_every must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_blowup_exits_2(self, tmp_path, capsys):
        path = tmp_path / "explode.cfg"
        path.write_text(TINY_CONFIG + "blowup_threshold = 1e-6\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "BLOW-UP" in capsys.readouterr().err


class TestSweep:
    def test_summary_table_and_exit_zero(self, config_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep-epsilon", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        text = (out / "summary.csv").read_text().splitlines()
        assert text[0] == "epsilon,sup_fast_sq,ratio,sup_fast_h1_sq,ratio_h1,slope,slope_h1"
        assert len(text) == 3
        assert "slope" in capsys.readouterr().out

    def test_zero_seeds_exits_1(self, config_file, tmp_path, capsys):
        code = main(["sweep-epsilon", "--config", str(config_file),
                     "--out", str(tmp_path / "sweep"), "--seeds", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_resolution_override(self, config_file, tmp_path):
        out = tmp_path / "sweep8"
        code = main([
            "sweep-epsilon", "--config", str(config_file), "--out", str(out),
            "--resolution", "8", "--quiet",
        ])
        assert code == 0


class TestContraction:
    def test_violation_exit_3(self, tmp_path, capsys):
        path = tmp_path / "strict.cfg"
        path.write_text(
            TINY_CONFIG.replace("epsilon = 0.2, 0.1", "epsilon = 0.05")
            .replace("t_end = 12.0", "t_end = 14.0")
            + "record_every = 5\ntol.rate_factor = 50.0\n"
        )
        code = main(["contraction", "--config", str(path), "--out", str(tmp_path / "c"),
                     "--quiet"])
        assert code == 3
        assert "THEOREM-VIOLATION" in capsys.readouterr().err
        assert (tmp_path / "c" / "contraction.csv").exists()

    def test_rejected_rate_fit_exit_3_with_data(self, tmp_path, capsys):
        path = tmp_path / "short.cfg"
        path.write_text(
            TINY_CONFIG.replace("epsilon = 0.2, 0.1", "epsilon = 0.05")
            .replace("t_spin = 10.0", "t_spin = 1.0")
            .replace("t_end = 12.0", "t_end = 3.0")
            + "record_every = 5\n"
        )
        code = main(["contraction", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert code == 3
        assert "rate fit rejected" in capsys.readouterr().err
        lines = (tmp_path / "contraction.csv").read_text().splitlines()
        assert lines[0] == "t,distance,tangent"
        assert len(lines) > 2


class TestSteadyResidual:
    def test_runs_clean(self, tmp_path, capsys):
        path = tmp_path / "steady.cfg"
        path.write_text(TINY_CONFIG.replace("t_end = 12.0", "t_end = 28.0"))
        out = tmp_path / "steady"
        code = main(["steady-residual", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "steady_residual.csv").read_text().splitlines()
        assert lines[0] == "epsilon,residual,distance,end_rhs_norm"
        assert len(lines) == 3


class TestAgmon:
    def test_small_ensemble_ok(self, capsys):
        code = main(["agmon-check", "--samples", "5", "--resolution", "16",
                     "--constant", "1.0"])
        assert code == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_bad_sample_count_exits_1(self, capsys, samples):
        code = main(["agmon-check", f"--samples={samples}", "--resolution", "16"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
        assert "samples," not in captured.out

    def test_tiny_constant_exit_3(self, capsys):
        code = main(["agmon-check", "--samples", "3", "--resolution", "16",
                     "--constant", "1e-9", "--quiet"])
        assert code == 3
        assert "PROPERTY-VIOLATION" in capsys.readouterr().err


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def test_experiment_configs_present():
    assert len(CONFIGS) == 4


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_experiment_config_loads(path):
    config = load_config(path)  # validates the CFL estimate too
    steps = config.t_end / config.h
    assert steps == pytest.approx(round(steps), rel=1e-9)


def test_unset_keys_take_the_dataclass_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("mu = 1.0\nepsilon = 0.1\nh = 0.01\nt_end = 12.0\nforcing.mode = 1,1,0.5,0.0\n")
    expected = ExperimentConfig(domain=Domain(), mu=1.0, epsilons=(0.1,),
                                forcing=ForcingSpec(modes=((1, 1, 0.5),)), h=0.01, t_end=12.0)
    assert load_config(path) == expected


def test_cli_import_does_not_load_scipy():
    # numpy.fft alone serves the transforms; importing scipy.fft costs ~0.5 s.
    src = str(Path(zns.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, zns.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["simulate", "contraction"])
def test_epsilon_flag_is_cfl_checked(command, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, "--config", str(config_file), "--out", str(out),
                 "--epsilon", "1000", "--quiet"])
    assert code == 1
    assert "CFL" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()
