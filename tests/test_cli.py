"""Command-line interface: subcommands, outputs and exit codes."""

import argparse
import importlib
import math
import os
import re
import runpy
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import zns
from zns.cli import build_parser, main
from zns.config import ConfigError, load_config
from zns.diagnostics import agmon_check
from zns.forcing import ForcingSpec
from zns.harness import TRIAD_COLUMNS, ExperimentConfig, Tolerances, config_hash
from zns.lattice import (
    Domain, parity_error, random_field, read_snapshot, reality_error, write_snapshot,
)
from zns.stepper import SimConfig

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
forcing.mode = 0,1,1.0,0.0
forcing.mode = 1,1,0.5,0.0
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(TINY_CONFIG)
    return path


def _exit_code(argv) -> int:
    """What ``main`` returns, or the status a usage error exits with."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


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
        # The last three configs are valid but for their last key, a removed option.
        for text in ("nope = 3\n", TINY_CONFIG + "reproject_every = 100\n",
                     TINY_CONFIG + "advection = false\n",
                     TINY_CONFIG + "forcing.kind = steady\n"):
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

    @pytest.mark.parametrize("size,code,real", [(1e-6, 1, True), (1e-14, 0, True),
                                                 (1e-14, 0, False)],
                             ids=["not-odd", "nearly-odd", "nearly-real"])
    def test_snapshot_parity_checked_and_projected(self, config_file, tmp_path, capsys, size,
                                                   code, real):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        w, eps, mu, t = read_snapshot(out1 / "state_final.zns")
        defect = size * np.abs(w.coeffs).max()
        if real:
            w.coeffs[2, 1] += defect  # mode (1, 2) and its mirror: real, even in y
            w.coeffs[-2, -1] += defect
        else:
            w.coeffs[1, 0] += defect  # mode (0, 1) alone: neither real nor odd
            assert 0.0 < reality_error(w) <= 1e-11 * np.abs(w.coeffs).max()
        write_snapshot(tmp_path / "snap.zns", w, eps, mu, t)
        out2 = tmp_path / "run2"
        assert main(["simulate", "--config", str(config_file), "--out", str(out2),
                     "--resume", str(tmp_path / "snap.zns"), "--quiet"]) == code
        if code:
            assert "not odd in y" in capsys.readouterr().err
        else:
            final, *_ = read_snapshot(out2 / "state_final.zns")
            assert parity_error(final) == 0.0 and reality_error(final) == 0.0

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

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_snapshot_time_exits_1(self, config_file, tmp_path, capsys, value):
        w = random_field(Domain(N1=16, N2=16), np.random.default_rng(0))
        write_snapshot(tmp_path / "bad.zns", w, 0.2, 1.0, value)
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(config_file), "--out", str(out),
                     "--resume", str(tmp_path / "bad.zns"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad.zns: t must be finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["nan", "not-odd", "mu", "t-past-end", "t-negative",
                                        "t-off-step"])
    def test_rejected_resume_leaves_no_output_directory(self, config_file, tmp_path, defect):
        out1 = tmp_path / "run1"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1),
                     "--quiet"]) == 0
        w, eps, mu, t = read_snapshot(out1 / "state_final.zns")
        if defect == "nan":
            w.coeffs[2, 1] = np.nan
        elif defect == "not-odd":
            w.coeffs[0, 1] = w.coeffs[0, -1] = 1.0
        elif defect == "mu":
            mu *= 2.0
        elif defect == "t-past-end":
            t = 13.0  # t_end is 12.0
        elif defect == "t-negative":
            t = -0.5  # steps are counted from t = 0
        else:
            t = 11.0037  # not a whole number of steps of h = 0.01
        write_snapshot(tmp_path / "bad.zns", w, eps, mu, t)
        out2 = tmp_path / "nested" / "run2"
        code = main(["simulate", "--config", str(config_file), "--out", str(out2),
                     "--resume", str(tmp_path / "bad.zns"), "--quiet"])
        assert code == 1
        assert not out2.exists() and not out2.parent.exists()

    def test_off_step_t_end_leaves_no_output_directory(self, tmp_path, capsys):
        path = tmp_path / "off-step.cfg"
        path.write_text(TINY_CONFIG.replace("t_end = 12.0", "t_end = 12.005"))
        out = tmp_path / "nested" / "run"
        code = main(["simulate", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        assert "not a whole number of steps" in capsys.readouterr().err
        assert not out.exists() and not out.parent.exists()

    # nan is a usage error, refused while the options are parsed.
    @pytest.mark.parametrize("every,message", [
        pytest.param("0", "error: --snapshot-every must be positive, got 0.0", id="0"),
        pytest.param("-0.1", "error: --snapshot-every must be positive, got -0.1", id="-0.1"),
        pytest.param("nan", "argument --snapshot-every: invalid finite_float value", id="nan"),
    ])
    def test_bad_snapshot_every_exits_1(self, config_file, tmp_path, capsys, every, message):
        out = tmp_path / "run"
        code = _exit_code(["simulate", "--config", str(config_file), "--out", str(out),
                           f"--snapshot-every={every}", "--quiet"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_blowup_exits_2(self, tmp_path, capsys):
        path = tmp_path / "explode.cfg"
        path.write_text(TINY_CONFIG + "blowup_threshold = 1e-6\n")
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "BLOW-UP" in capsys.readouterr().err

    def test_blowup_leaves_the_records_taken_before_it(self, tmp_path, capsys):
        # The zonal forcing mode grows past 0.05 some steps in; each step is recorded.
        text = TINY_CONFIG.replace("omega0_norm = 0.5", "omega0_norm = 0.01") + "record_every = 1\n"
        clean, explode = tmp_path / "clean.cfg", tmp_path / "explode.cfg"
        clean.write_text(text)
        explode.write_text(text + "blowup_threshold = 0.05\n")
        assert main(["simulate", "--config", str(clean), "--out", str(tmp_path / "a"),
                     "--quiet"]) == 0
        capsys.readouterr()
        code = main(["simulate", "--config", str(explode), "--out", str(tmp_path / "b")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("BLOW-UP: blow-up at t=") and len(err.splitlines()) == 1
        t_blowup = float(re.search(r"blow-up at t=([0-9.e+-]+):", err).group(1))
        rows = (tmp_path / "b" / "diagnostics.csv").read_text().splitlines()
        want = [r for r in (tmp_path / "a" / "diagnostics.csv").read_text().splitlines()
                if r.startswith("t,") or float(r.split(",")[0]) < t_blowup - 1e-9]
        assert rows == want and len(rows) > 3
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["diagnostics.csv"]

    @pytest.mark.parametrize("where", ["m1=K", "m2=R+1"])
    def test_resume_outside_the_band_exits_1(self, config_file, tmp_path, capsys, where):
        # 16 x 16: the band is 0 < m2 <= R = 5, |m1| <= K - 1 = 5.
        d = Domain(N1=16, N2=16)
        w = random_field(d, np.random.default_rng(0), norm_target=0.5)
        m1, m2 = (6, 1) if where == "m1=K" else (1, 6)
        for (a1, a2), c in {(m1, m2): 1e-3j, (m1, -m2): -1e-3j,
                            (-m1, m2): 1e-3j, (-m1, -m2): -1e-3j}.items():
            w.coeffs[a2 % 16, a1 % 16] = c
        assert parity_error(w) == 0.0 and reality_error(w) == 0.0
        write_snapshot(tmp_path / "wide.zns", w, 0.2, 1.0, 0.0)
        out = tmp_path / "nested" / "run"
        code = main(["simulate", "--config", str(config_file), "--out", str(out),
                     "--resume", str(tmp_path / "wide.zns"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "wide.zns: snapshot has a nonzero coefficient outside the 2/3 band" in err
        assert not out.exists() and not out.parent.exists()


# Two members under a tilted forcing alone: the eps = 0.01 member stays below 0.05, and
# the eps = 10 one, whose forced response is larger, crosses it some steps in.
BLOWUP_CONFIG = """
n1 = 16
n2 = 16
mu = 1.0
epsilon = 0.01, 10.0
h = 0.01
t_spin = 0.5
t_end = 1.0
seed = 3
omega0_norm = 0.01
record_every = 1
forcing.mode = 1,1,0.5,0.0
"""


def _blowup_runs(tmp_path, capsys, argv) -> tuple[Path, Path, float]:
    """Run the command ``argv`` on ``BLOWUP_CONFIG`` without and with ``blowup_threshold =
    0.05``; the two output directories and the time of the eps = 10 member's blow-up."""
    clean, explode = tmp_path / "clean.cfg", tmp_path / "explode.cfg"
    clean.write_text(BLOWUP_CONFIG)
    explode.write_text(BLOWUP_CONFIG + "blowup_threshold = 0.05\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([argv[0], "--config", str(clean), "--out", str(a), "--quiet", *argv[1:]]) != 2
    capsys.readouterr()
    code = main([argv[0], "--config", str(explode), "--out", str(b), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("BLOW-UP: blow-up at t=") and len(err.splitlines()) == 1
    assert err.rstrip().endswith("(eps=10, seed=3)")
    return a, b, float(re.search(r"blow-up at t=([0-9.e+-]+):", err).group(1))


def _rows_before(path: Path, t: float) -> list[str]:
    """The header and the rows of the CSV ``path`` taken before time ``t``."""
    return [r for r in path.read_text().splitlines()
            if r.startswith("t,") or float(r.split(",")[0]) < t - 1e-9]


class TestSweep:
    def test_blowup_leaves_the_series_taken_before_it(self, tmp_path, capsys):
        a, b, t = _blowup_runs(tmp_path, capsys, ["sweep-epsilon"])
        finished, blown = "diagnostics_eps0.01_seed3.csv", "diagnostics_eps10_seed3.csv"
        assert sorted(p.name for p in b.iterdir()) == [finished, blown]
        assert (b / finished).read_text() == (a / finished).read_text()
        rows = (b / blown).read_text().splitlines()
        assert rows == _rows_before(a / blown, t) and len(rows) > 3

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
    def test_blowup_leaves_the_rows_taken_before_it(self, tmp_path, capsys):
        a, b, t = _blowup_runs(tmp_path, capsys, ["contraction", "--epsilon", "10"])
        assert [p.name for p in b.iterdir()] == ["contraction.csv"]
        rows = (b / "contraction.csv").read_text().splitlines()
        assert rows == _rows_before(a / "contraction.csv", t) and len(rows) > 3

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

    # configs/collapse.cfg is the negative control: the attractor collapses to a point
    # only for small enough epsilon.  It runs at 32^2: at 16^2 and 24^2 eps 0.02 exits 3 too.
    @pytest.mark.parametrize("epsilon, code", [("0.05", 3), ("0.02", 0)])
    def test_collapse_needs_small_epsilon(self, epsilon, code, tmp_path, capsys):
        path = Path(__file__).resolve().parent.parent / "configs" / "collapse.cfg"
        assert main(["contraction", "--config", str(path), "--epsilon", epsilon,
                     "--out", str(tmp_path), "--quiet"]) == code
        assert ("THEOREM-VIOLATION: distance decay rate" in capsys.readouterr().err) == (code == 3)


class TestSteadyResidual:
    def test_blowup_leaves_the_rows_of_the_finished_epsilons(self, tmp_path, capsys):
        a, b, _ = _blowup_runs(tmp_path, capsys, ["steady-residual"])
        assert [p.name for p in b.iterdir()] == ["steady_residual.csv"]
        rows = (b / "steady_residual.csv").read_text().splitlines()
        assert rows == (a / "steady_residual.csv").read_text().splitlines()[:2]
        assert rows[1].startswith("0.01,")

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

    @pytest.mark.parametrize("link", ["lhs", "low_sum", "high_sum"])
    def test_each_broken_link_of_the_chain_exits_3(self, link, capsys, monkeypatch):
        # Each link of lhs <= low_sum + high_sum, low_sum <= low_bound and
        # high_sum <= high_bound, broken in a patched report of the real check.
        import zns.cli

        def broken(u, v, constant):
            report = agmon_check(u, v, constant)
            bound = {"lhs": report.low_sum + report.high_sum, "low_sum": report.low_bound,
                     "high_sum": report.high_bound}[link]
            return replace(report, **{link: bound * 1.01})

        monkeypatch.setattr(zns.cli, "agmon_check", broken)
        code = main(["agmon-check", "--samples", "3", "--resolution", "16", "--quiet"])
        assert code == 3
        assert capsys.readouterr().err == "PROPERTY-VIOLATION: partial-sum chain broken\n"


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))


def test_experiment_configs_present():
    assert len(CONFIGS) == 5


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


def _config_setting(key, value):
    """TINY_CONFIG with every ``key`` line replaced by ``key = value``."""
    lines = [l for l in TINY_CONFIG.splitlines() if not l.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


# (command-line arguments, config text); "CFG" stands for the config file.
BAD_INPUTS = {
    "usage:epsilon-abc": (["simulate", "--config", "CFG", "--epsilon", "abc"], TINY_CONFIG),
    "usage:samples-x": (["agmon-check", "--samples", "x"], TINY_CONFIG),
    "usage:unknown-flag": (["simulate", "--config", "CFG", "--no-such-flag"], TINY_CONFIG),
    "nan:epsilon": (["simulate", "--config", "CFG"], _config_setting("epsilon", "nan")),
    "nan:blowup_threshold": (["simulate", "--config", "CFG"],
                             _config_setting("blowup_threshold", "nan")),
    "nan:tol.cfl_max": (["simulate", "--config", "CFG"], _config_setting("tol.cfl_max", "nan")),
    "inf:t_end": (["simulate", "--config", "CFG"], _config_setting("t_end", "inf")),
    "inf:l1": (["simulate", "--config", "CFG"], _config_setting("l1", "inf")),
    "nan:forcing.mode": (["simulate", "--config", "CFG"],
                         _config_setting("forcing.mode", "1,1,nan,0.0")),
    "nan:forcing.sigma": (["simulate", "--config", "CFG"], _config_setting("forcing.sigma", "nan")),
    "nan:--epsilon": (["simulate", "--config", "CFG", "--epsilon", "nan"], TINY_CONFIG),
    "negative:--epsilon": (["contraction", "--config", "CFG", "--epsilon", "-0.1"], TINY_CONFIG),
    "inf:--l1": (["triad-check", "--l1", "inf"], TINY_CONFIG),
    "negative:--l2": (["triad-check", "--l2", "-1"], TINY_CONFIG),
    "odd:--resolution": (["agmon-check", "--samples", "3", "--resolution", "5"], TINY_CONFIG),
    # The flag overrides the config's n1 and n2, so a refusal of them is the flag's.
    "odd-on-config:--resolution": (["simulate", "--config", "CFG", "--resolution", "5"],
                                   TINY_CONFIG),
    "nan:--constant": (["agmon-check", "--samples", "3", "--resolution", "16",
                        "--constant", "nan"], TINY_CONFIG),
    # A constant <= 0 made every run a violation (exit 3).
    "negative:--constant": (["agmon-check", "--samples", "3", "--resolution", "16",
                             "--constant", "-1"], TINY_CONFIG),
    "zero:--constant": (["agmon-check", "--samples", "3", "--resolution", "16",
                         "--constant", "0"], TINY_CONFIG),
    "zero:--max-k": (["triad-check", "--max-k", "0"], TINY_CONFIG),
    "negative:--max-k": (["triad-check", "--max-k", "-2"], TINY_CONFIG),
    "repeated:mu": (["simulate", "--config", "CFG"], TINY_CONFIG + "mu = 5.0\n"),
    "label:epsilon": (["sweep-epsilon", "--config", "CFG"],
                      _config_setting("epsilon", "0.1, 0.1000001, 0.05")),
    "overflow:--epsilon": (["simulate", "--config", "CFG", "--epsilon", "1e-320"], TINY_CONFIG),
    "negative:omega0_norm": (["simulate", "--config", "CFG"],
                             _config_setting("omega0_norm", "-0.5")),
    "one-point-fit:tol.min_tail_samples": (["contraction", "--config", "CFG"],
                                           _config_setting("tol.min_tail_samples", "1")),
    # 1.2e301 and 1e11 steps: from 5e8 on the whole-step check would pass any time.
    "runaway:h": (["simulate", "--config", "CFG"], _config_setting("h", "1e-300")),
    "runaway:t_end": (["simulate", "--config", "CFG"], _config_setting("t_end", "1e9")),
    # -1/mu overflows and inf * 0 is NaN: a NaN CFL estimate.
    "nan-cfl:mu": (["simulate", "--config", "CFG"], _config_setting("mu", "1e-320")),
    # |k|^2 of the (1, 0) mode underflows to 0 or to a subnormal.
    "underflow:--l1": (["triad-check", "--max-k", "3", "--l1", "1e300"], TINY_CONFIG),
    "subnormal:l1": (["simulate", "--config", "CFG"], _config_setting("l1", "1e160")),
    # |k|^2 of the largest mode overflows.
    "overflow:--l2": (["triad-check", "--max-k", "3", "--l2", "1e-160"], TINY_CONFIG),
    "overflow:l2": (["simulate", "--config", "CFG"], _config_setting("l2", "1e-160")),
    # A threshold <= 0 made the first step a blow-up (exit 2).
    "zero:blowup_threshold": (["simulate", "--config", "CFG"],
                              _config_setting("blowup_threshold", "0")),
    "negative:blowup_threshold": (["simulate", "--config", "CFG"],
                                  _config_setting("blowup_threshold", "-1")),
    # A negative bound or slack made every run a violation (exit 3); a negative cfl_max
    # refused every h as a CFL violation.
    "negative:tol.seed_spread": (["sweep-epsilon", "--config", "CFG", "--seeds", "2"],
                                 _config_setting("tol.seed_spread", "-1")),
    "negative:tol.bound_spread": (["sweep-epsilon", "--config", "CFG"],
                                  _config_setting("tol.bound_spread", "-1")),
    "negative:tol.monotone_slack": (["sweep-epsilon", "--config", "CFG"],
                                    _config_setting("tol.monotone_slack", "-1")),
    "negative:tol.steady_tol": (["steady-residual", "--config", "CFG"],
                                _config_setting("tol.steady_tol", "-1")),
    "negative:tol.cfl_max": (["simulate", "--config", "CFG"], _config_setting("tol.cfl_max", "-1")),
    # An override named its key, not the flag; a zero count named neither.
    "negative:--seed": (["sweep-epsilon", "--config", "CFG", "--seed", "-1"], TINY_CONFIG),
    "negative-on-simulate:--seed": (["simulate", "--config", "CFG", "--seed", "-1"], TINY_CONFIG),
    "negative-on-contraction:--seed": (["contraction", "--config", "CFG", "--seed", "-1"],
                                       TINY_CONFIG),
    "negative-on-steady-residual:--seed": (["steady-residual", "--config", "CFG", "--seed", "-1"],
                                           TINY_CONFIG),
    "negative-on-agmon-check:--seed": (["agmon-check", "--samples", "1", "--seed", "-1"],
                                       TINY_CONFIG),
    "odd-on-sweep-epsilon:--resolution": (["sweep-epsilon", "--config", "CFG", "--resolution", "5"],
                                          TINY_CONFIG),
    "odd-on-contraction:--resolution": (["contraction", "--config", "CFG", "--resolution", "5"],
                                        TINY_CONFIG),
    "odd-on-steady-residual:--resolution": (["steady-residual", "--config", "CFG",
                                             "--resolution", "5"], TINY_CONFIG),
    "zero:--seeds": (["sweep-epsilon", "--config", "CFG", "--seeds", "0"], TINY_CONFIG),
    "zero:--snapshot-every": (["simulate", "--config", "CFG", "--snapshot-every", "0"],
                              TINY_CONFIG),
    "zero:--samples": (["agmon-check", "--samples", "0"], TINY_CONFIG),
    # Counts whose (N2, N1) complex array numpy cannot index: refused by Domain before any
    # array exists.  10**155 also overflowed |k|^2 and was blamed on --l1; 10**39 and 10**22
    # stopped at numpy's "Maximum allowed dimension exceeded".
    "huge:--resolution": (["agmon-check", "--samples", "1", "--resolution", str(10**39)],
                          TINY_CONFIG),
    "overflow:--resolution": (["agmon-check", "--samples", "1", "--resolution", str(10**155)],
                              TINY_CONFIG),
    "huge-on-config:--resolution": (["simulate", "--config", "CFG", "--resolution", str(10**22)],
                                    TINY_CONFIG),
    "huge:n1": (["simulate", "--config", "CFG"], _config_setting("n1", str(10**22))),
    # N1 = N2 = 4 max_k: refused by Domain before any array exists.  The refusal named
    # --resolution, which triad-check does not have, and the value 4 max_k.
    "huge:--max-k": (["triad-check", "--max-k", str(10**9)], TINY_CONFIG),
}


@pytest.mark.filterwarnings("error")  # a refusal prints its error: line and nothing else
@pytest.mark.parametrize("argv,text", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_1(argv, text, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    argv = [str(cfg) if a == "CFG" else a for a in argv] + ["--out", str(out)]
    assert _exit_code(argv) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


# Each names its flag: "<what>:<flag>", run by the command that is its argv[0].
FLAG_CASES = ["zero:--max-k", "negative:--max-k", "zero:--constant", "negative:--constant",
              "inf:--l1", "negative:--l2", "odd:--resolution", "odd-on-config:--resolution",
              "underflow:--l1", "overflow:--l2", "nan:--epsilon", "negative:--epsilon",
              "negative:--seed", "negative-on-simulate:--seed", "negative-on-contraction:--seed",
              "negative-on-steady-residual:--seed", "negative-on-agmon-check:--seed",
              "odd-on-sweep-epsilon:--resolution", "odd-on-contraction:--resolution",
              "odd-on-steady-residual:--resolution", "zero:--seeds", "zero:--snapshot-every",
              "zero:--samples", "huge:--resolution", "overflow:--resolution",
              "huge-on-config:--resolution", "huge:--max-k"]

# Options that take a path: no value of theirs is refused by a rule that names them.
NAMELESS_OPTIONS = {"--config": "a path; an unreadable one says 'cannot read config file'",
                    "--out": "a path; made when the first output file is written",
                    "--resume": "a path; a rejected snapshot is named by its path"}


@pytest.mark.parametrize("name", FLAG_CASES)
def test_a_refused_flag_names_itself(name, tmp_path, capsys):
    argv, text = BAD_INPUTS[name]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name.split(':')[1]} must be ")


def test_a_huge_max_k_names_the_value_typed(tmp_path, capsys):
    assert main(["triad-check", "--max-k", str(10**9), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("error: --max-k must be small enough for numpy to index "
                                       "the (4 max_k, 4 max_k) complex array, got 1000000000\n")


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 71.1 PiB for an array with shape (100000000, 100000000) "
                 "and data type float64"),
     "error: Unable to allocate 71.1 PiB for an array with shape (100000000, 100000000) "
     "and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_an_allocation_the_host_refuses_exits_1(error, line, monkeypatch, tmp_path, capsys):
    # A mode count that Domain accepts but the host cannot hold: one error: line, no
    # traceback.  The callee raises, so nothing is really allocated.
    import zns.cli

    def no_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(zns.cli, "random_field", no_memory)
    out = tmp_path / "out"
    assert main(["agmon-check", "--samples", "1", "--resolution", "16", "--out", str(out)]) == 1
    assert capsys.readouterr().err == line
    assert not out.exists()


def test_every_option_with_a_value_has_a_refusal_that_names_it():
    # A new option fails here until a FLAG_CASES entry refuses it on each command it has.
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    options = {(command, a.option_strings[0]) for command, p in commands.items()
               for a in p._actions if a.option_strings and a.nargs != 0}
    covered = {(BAD_INPUTS[name][0][0], name.split(":")[1]) for name in FLAG_CASES}
    assert {(c, o) for c, o in options - covered if o not in NAMELESS_OPTIONS} == set()
    assert covered <= options
    assert set(NAMELESS_OPTIONS) <= {o for _, o in options}


@pytest.mark.parametrize("argv", [["sweep-epsilon", "--config", "CFG"],
                                  ["agmon-check", "--samples", "1", "--resolution", "16"]],
                         ids=["sweep-epsilon", "agmon-check"])
def test_negative_seed_exits_1_naming_it(argv, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(config_file) if a == "CFG" else a for a in argv]
    assert main(argv + ["--seed", "-1", "--out", str(out), "--quiet"]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


# A value that does not parse, and one that a dataclass refuses, each name their key.
@pytest.mark.parametrize("key, value", [("mu", "abc"), ("n1", "16.0"), ("epsilon", "0.2, ,0.1"),
                                        ("forcing.mode", "1,x,0.5,0.0"),
                                        ("tol.min_tail_samples", "2.5"), ("blowup_threshold", "-1"),
                                        ("tol.seed_spread", "-1"), ("tol.cfl_max", "-1"),
                                        ("n1", "5"), ("l2", "-1"), ("h", "-0.1"),
                                        ("epsilon", "-0.1"), ("t_spin", "1e9"), ("mu", "-1"),
                                        ("record_every", "0"), ("l1", "1e160"),
                                        ("l2", "1e-160"), ("n1", str(10**22))])
def test_a_refused_value_names_its_key(key, value, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(_config_setting(key, value))
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}(: | must be )") as refused:
        load_config(path)
    message = str(refused.value)
    if " must be " in message:  # a dataclass's refusal ends with the value it got
        assert float(message.rpartition(", got ")[2]) == float(value)


def test_a_refused_override_takes_its_callers_name(tmp_path):
    # Not a line of the file: it is named by the name its caller gave it.
    path = tmp_path / "ok.cfg"
    path.write_text(TINY_CONFIG)
    for overrides, name in (({"n1": ("--resolution", 5)}, "--resolution"),
                            ({"epsilon": ("--epsilon", (-0.1,))}, "--epsilon"),
                            ({"seed": ("the seed", -1)}, "the seed")):
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be "):
            load_config(path, overrides)


# The reader leaves finiteness to the dataclasses: each key that carries a real number.
FLOAT_KEYS = ["l1", "l2", "mu", "h", "t_end", "t_spin", "omega0_norm", "blowup_threshold",
              "epsilon", "forcing.sigma", "forcing.mode"] + [
    f"tol.{f.name}" for f in fields(Tolerances) if isinstance(f.default, float)]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_reader_refuses_every_non_finite_number(key, tmp_path):
    value = "1,1,nan,0.0" if key == "forcing.mode" else "nan"
    path = tmp_path / "bad.cfg"
    path.write_text(_config_setting(key, value))
    # The message names the key as the file writes it, not the dataclass field.
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be finite"):
        load_config(path)


def test_the_schema_the_key_lists_and_the_docstring_name_the_same_keys():
    int_keys = ["n1", "n2", "seed", "record_every"] + [
        f"tol.{f.name}" for f in fields(Tolerances) if isinstance(f.default, int)]
    documented = set()
    for line in zns.config.__doc__.splitlines():  # "    key[, key]  what it sets"
        if match := re.match(r"    ([a-z][\w.<>]*(?:, [a-z][\w.<>]*)*)  ", line):
            documented |= set(match[1].split(", "))
    assert "tol.<name>" in documented
    documented = documented - {"tol.<name>"} | {f"tol.{f.name}" for f in fields(Tolerances)}
    assert len(FLOAT_KEYS) + len(int_keys) == len(set(FLOAT_KEYS) | set(int_keys))
    assert set(zns.config._SCHEMA) == set(FLOAT_KEYS) | set(int_keys) == documented


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_api_refuses_what_the_reader_refuses(value, config_file):
    config = load_config(config_file)
    builds = {
        "l1": lambda: Domain(L1=value),
        "l2": lambda: Domain(L2=value),
        "epsilon": lambda: replace(config, epsilons=(0.1, value)),
        "forcing.sigma": lambda: ForcingSpec(config.forcing.modes, sigma=value),
        "forcing.mode": lambda: ForcingSpec(((1, 1, complex(0.5, value)),)),
        "SimConfig.blowup_threshold": lambda: SimConfig(0.1, 0.5, blowup_threshold=value),
        "SimConfig.epsilon": lambda: SimConfig(epsilon=value, mu=0.5),
        "SimConfig.mu": lambda: SimConfig(epsilon=0.1, mu=value),
    }
    for name in ("mu", "h", "t_end", "t_spin", "omega0_norm", "blowup_threshold"):
        builds[name] = lambda name=name: replace(config, **{name: value})
    for f in fields(Tolerances):
        if isinstance(f.default, float):
            builds[f"tol.{f.name}"] = lambda f=f: Tolerances(**{f.name: value})
    assert set(FLOAT_KEYS) <= set(builds)
    for build in builds.values():
        with pytest.raises(ValueError, match="must be finite"):
            build()


def test_benchmark_workload_configs_round_trip(tmp_path):
    # Each workload's config must read back from its .cfg text unchanged;
    # the benchmark's simulate workload refuses to start otherwise.
    root = Path(__file__).resolve().parent.parent
    workloads = runpy.run_path(str(root / "perfbench" / "workloads.py"))
    for w in workloads["WORKLOADS"].values():
        config = workloads["experiment_config"](w, workloads["DEFAULT_SEED"])
        path = tmp_path / f"{w.name}.cfg"
        path.write_text(workloads["config_text"](config))
        assert load_config(path) == config, w.name


# Every name of ``zns`` that perfbench/ imports, calls or patches, by module; a change
# that removes one breaks the benchmark without failing any other test here.
BENCHMARK_HOOKS = {
    "zns.cli": ["main", "load_config"],
    "zns.config": ["load_config"],
    "zns.diagnostics": ["CSV_COLUMNS"],
    "zns.forcing": ["Forcing.__call__", "ForcingSpec"],
    "zns.harness": ["ExperimentConfig.__post_init__", "run_contraction_test",
                    "run_epsilon_sweep", "record_state", "budget_residual", "project_parity",
                    "write_snapshot", "write_diagnostics_csv"],
    "zns.lattice": ["Domain", "parity_error", "reality_error", "random_field",
                    "read_snapshot"],
    "zns.operators": ["_advect_raw", "_grid", "_spec", "jacobian"],
    "zns.stepper": ["_advect_raw", "Stepper.__init__", "Stepper.step_with_stages",
                    "Stepper.tangent_step"],
}


@pytest.mark.parametrize("module,attr", [
    (module, attr) for module, attrs in BENCHMARK_HOOKS.items() for attr in attrs])
def test_benchmark_hooks_exist(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        # Defined by zns itself: every class has an ``__init__`` and a ``__call__``.
        owners = obj.__mro__[:-1] if isinstance(obj, type) else (obj,)
        assert any(part in vars(o) for o in owners), f"{module}.{attr}: no {part!r}"
        obj = getattr(obj, part)


def test_integrate_records_full_fields(monkeypatch):
    # The benchmark's output check hooks ``harness.record_state`` and indexes each state
    # it gets as a full field, so a record of a band block would fail every benchmark run.
    import zns.harness as harness
    from zns.forcing import Forcing
    from zns.lattice import SpectralField
    from zns.stepper import Stepper

    seen = []
    record_state = harness.record_state
    monkeypatch.setattr(harness, "record_state",
                        lambda w, t, budget=0.0: seen.append(w) or record_state(w, t, budget))
    d = Domain(N1=16, N2=16)
    w0, phi, partner = (harness.initial_state(d, seed, 0.5) for seed in (1, 2, 3))
    harness.integrate(Stepper(d, SimConfig(epsilon=0.2, mu=0.5), 0.01),
                      Forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d), w0, 0.0, 0.05,
                      record_every=2, tangent=phi, partner=partner)
    assert len(seen) == 4  # t = 0, steps 2 and 4, and the last
    for w in seen:
        assert type(w) is SpectralField and w.coeffs.shape == (16, 16)
        assert parity_error(w) == 0.0 and reality_error(w) == 0.0


def _fresh_python(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports zns from this tree."""
    src = str(Path(zns.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_does_not_load_scipy():
    # numpy.fft alone serves the transforms; importing scipy.fft costs ~0.5 s.
    code = "import sys, zns.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    assert _fresh_python(code) == "[]"


# Each layer and the layers it imports; the package root imports none of them.
LAYERS = {
    "lattice": [],
    "forcing": ["lattice"],
    "operators": ["lattice"],
    "stepper": ["forcing", "lattice", "operators"],
    "diagnostics": ["forcing", "lattice", "operators"],
    "harness": ["diagnostics", "forcing", "lattice", "operators", "stepper"],
    "config": ["diagnostics", "forcing", "harness", "lattice", "operators", "stepper"],
    "cli": ["config", "diagnostics", "forcing", "harness", "lattice", "operators", "stepper"],
}


@pytest.mark.parametrize("layer", LAYERS)
def test_a_layer_loads_only_the_layers_it_imports(layer):
    code = f"import sys, zns.{layer}; print(sorted(m for m in sys.modules if m.startswith('zns.')))"
    assert _fresh_python(code) == str(sorted(f"zns.{m}" for m in [layer, *LAYERS[layer]]))


def test_the_package_root_loads_no_layer_and_binds_only_its_version():
    code = ("import sys, zns; print(sorted(m for m in sys.modules if m.startswith('zns.')), "
            "sorted(n for n in vars(zns) if not n.startswith('_')), type(zns.__version__))")
    assert _fresh_python(code) == "[] [] <class 'str'>"


@pytest.mark.parametrize("command", ["simulate", "contraction"])
def test_epsilon_flag_is_cfl_checked(command, config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, "--config", str(config_file), "--out", str(out),
                 "--epsilon", "1000", "--quiet"])
    assert code == 1
    assert "CFL" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


# At 64^2 with h = 0.009 the CFL estimate is 0.55 at eps = 1.0 and 0.46 at eps = 0.01.
CFL_CONFIG = """
n1 = 64
n2 = 64
mu = 0.5
epsilon = 1.0, 0.01
h = 0.009
t_spin = 0.045
t_end = 0.09
seed = 7
forcing.mode = 0,1,1.0,0.0
forcing.mode = 1,1,0.5,0.0
"""


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_epsilon_flag_replaces_the_config_list(tmp_path, monkeypatch):
    # The run is that of the file that lists E alone: its checks, its hash, its bytes.
    listed, alone = tmp_path / "cfl.cfg", tmp_path / "alone.cfg"
    listed.write_text(CFL_CONFIG)
    alone.write_text(CFL_CONFIG.replace("epsilon = 1.0, 0.01", "epsilon = 0.01"))
    with pytest.raises(ConfigError, match=r"v_est=6, CFL=0\.55 > 0\.5$"):
        load_config(listed)
    expected = load_config(alone)
    override = {"epsilon": ("--epsilon", (0.01,))}
    assert load_config(listed, override) == expected
    assert config_hash(load_config(listed, override)) == config_hash(expected)
    loaded = []
    monkeypatch.setattr("zns.cli.load_config",
                        lambda *a: loaded.append(load_config(*a)) or loaded[-1])
    for path, out, flags in ((listed, "a", ["--epsilon", "0.01"]), (alone, "b", [])):
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / out),
                     "--snapshot-every", "0.045", "--quiet", *flags]) == 0
    assert loaded == [expected, expected]
    assert config_hash(loaded[0]) == config_hash(loaded[1])
    files = _files(tmp_path / "a")
    assert sorted(files) == ["diagnostics.csv", "state_final.zns", "state_t0.045000.zns",
                             "state_t0.090000.zns"]
    assert files == _files(tmp_path / "b")


def test_resume_runs_at_the_snapshot_epsilon_if_the_config_lists_it(config_file, tmp_path,
                                                                     capsys):
    # TINY_CONFIG lists 0.2, 0.1: a snapshot at 0.1 resumes at 0.1, one at 0.05 is refused.
    full = tmp_path / "full"
    assert main(["simulate", "--config", str(config_file), "--out", str(full),
                 "--epsilon", "0.1", "--snapshot-every", "1.0", "--quiet"]) == 0
    snap = full / "state_t11.000000.zns"
    assert read_snapshot(snap)[1] == 0.1
    resumed = tmp_path / "resumed"
    assert main(["simulate", "--config", str(config_file), "--out", str(resumed),
                 "--resume", str(snap), "--quiet"]) == 0
    final = (resumed / "state_final.zns").read_bytes()
    assert final == (full / "state_final.zns").read_bytes()

    w, _, mu, t = read_snapshot(snap)
    write_snapshot(tmp_path / "other.zns", w, 0.05, mu, t)
    out = tmp_path / "nested" / "run"
    assert main(["simulate", "--config", str(config_file), "--out", str(out),
                 "--resume", str(tmp_path / "other.zns"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: config epsilon list (0.2, 0.1) does not match snapshot epsilon=0.05\n")
    assert not out.parent.exists()
