"""Experiment plumbing: configs, determinism, restart, sweeps, contraction."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zns.diagnostics import steady_residual
from zns.forcing import Forcing, ForcingSpec
from zns.harness import (
    _step_range,
    ExperimentConfig,
    Tolerances,
    config_hash,
    fit_exponential_rate,
    initial_state,
    integrate,
    run_contraction_test,
    run_epsilon_sweep,
    run_steady_residual_sweep,
    simulate,
    summarize_contraction,
    summarize_epsilon_sweep,
    summarize_steady_sweep,
    write_csv,
    write_diagnostics_csv,
)
from zns.lattice import (
    Domain,
    norm,
    parity_error,
    read_snapshot,
    reality_error,
    write_snapshot,
)
from zns.operators import split
from zns.stepper import BlowUpError, SimConfig, Stepper

from conftest import LinearStepper, on_fields, zero_forcing

ZONAL = ForcingSpec(modes=((0, 1, 1.0),))
MIXED = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))


def tiny_config(**kw):
    defaults = dict(
        domain=Domain(N1=16, N2=16),
        mu=1.0,
        epsilons=(0.2, 0.1, 0.05),
        forcing=MIXED,
        h=0.01,
        t_end=14.0,
        t_spin=10.0,
        seed=3,
        omega0_norm=0.5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_spin_default_is_ten_efolds(self):
        cfg = tiny_config(t_spin=None, t_end=30.0)
        assert cfg.t_spin == pytest.approx(10.0 / cfg.nu)
        assert cfg.nu == pytest.approx(1.0)

    def test_window_ordering_enforced(self):
        with pytest.raises(ValueError):
            tiny_config(t_end=5.0, t_spin=10.0)

    def test_epsilons_positive_and_distinct(self):
        with pytest.raises(ValueError):
            tiny_config(epsilons=(0.1, -0.2))
        with pytest.raises(ValueError):
            tiny_config(epsilons=(0.1, 0.1))
        # Distinct values that print alike would share one output file.
        with pytest.raises(ValueError, match=r"0\.1 and 0\.1000001 share the label eps=0\.1$"):
            tiny_config(epsilons=(0.1, 0.1000001, 0.05))

    def test_cfl_guard(self):
        with pytest.raises(ValueError, match="CFL"):
            tiny_config(h=0.5)

    def test_sim_config_refuses_an_epsilon_outside_the_config(self):
        # Only the config's epsilons passed its label and CFL checks.
        cfg = tiny_config()
        assert cfg.sim_config(0.1) == SimConfig(epsilon=0.1, mu=1.0)
        with pytest.raises(ValueError, match=r"^epsilon=0\.3 is not one of the config's "
                                             r"epsilons \(0\.2, 0\.1, 0\.05\)$"):
            cfg.sim_config(0.3)

    def test_hash_depends_on_content(self):
        a = config_hash(tiny_config())
        b = config_hash(tiny_config(seed=4))
        assert a != b
        assert a == config_hash(tiny_config())

    def test_negative_initial_norm_and_one_point_rate_fit_refused(self):
        # A negative target would only flip the field's sign, past the CFL estimate.
        with pytest.raises(ValueError, match=r"^omega0_norm must be non-negative, got -40\.0$"):
            tiny_config(omega0_norm=-40.0)
        with pytest.raises(ValueError, match=r"^min_tail_samples must be >= 2, got 1$"):
            Tolerances(min_tail_samples=1)
        tiny_config(omega0_norm=0.0, tolerances=Tolerances(min_tail_samples=2))

    def test_bounds_that_fail_every_run_refused(self):
        # A negative bound or slack fails every run, a cfl_max <= 0 refuses every h and a
        # blowup_threshold <= 0 the first step; zero bounds and signed thresholds are kept.
        for name in ("seed_spread", "bound_spread", "steady_tol", "monotone_slack"):
            with pytest.raises(ValueError, match=rf"^{name} must be non-negative, got -1\.0$"):
                Tolerances(**{name: -1.0})
            Tolerances(**{name: 0.0})
        with pytest.raises(ValueError, match=r"^cfl_max must be positive, got 0\.0$"):
            Tolerances(cfl_max=0.0)
        with pytest.raises(ValueError, match=r"^blowup_threshold must be positive, got 0\.0$"):
            SimConfig(epsilon=0.1, mu=1.0, blowup_threshold=0.0)
        with pytest.raises(ValueError, match=r"^blowup_threshold must be positive, got -1\.0$"):
            tiny_config(blowup_threshold=-1.0)
        Tolerances(slope_min=-1.0, rate_factor=-1.0)


class TestInitialState:
    def test_deterministic_and_normalized(self):
        d = Domain(N1=32, N2=32)
        w1 = initial_state(d, 7, 1.5)
        w2 = initial_state(d, 7, 1.5)
        assert np.array_equal(w1.coeffs, w2.coeffs)
        assert norm(w1) == pytest.approx(1.5)
        assert parity_error(w1) == 0.0
        w3 = initial_state(d, 8, 1.5)
        assert norm(w1 - w3) > 0.1

    def test_support_truncated_at_quarter(self):
        d = Domain(N1=32, N2=32)
        w = initial_state(d, 0, 1.0)
        radius = np.hypot(d.m1[None, :], d.m2[:, None])
        assert np.all(w.coeffs[radius > 8.0] == 0.0)


class TestIntegrate:
    def test_record_cadence_and_final_time(self):
        cfg = tiny_config(t_end=11.0)
        forcing = Forcing(cfg.forcing, cfg.domain)
        w0 = initial_state(cfg.domain, 0, 0.5)
        stepper = Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h)
        _, records = integrate(stepper, forcing, w0, 0.0, 1.0, record_every=25)
        ts = [r.t for r in records]
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(1.0)
        assert ts[1] == pytest.approx(25 * cfg.h)

    def test_parity_holds_exactly_without_reprojection(self):
        cfg = tiny_config()
        forcing = Forcing(cfg.forcing, cfg.domain)
        w0 = initial_state(cfg.domain, 1, 0.5)
        w, _ = integrate(
            Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h), forcing, w0, 0.0, 2.0
        )
        assert parity_error(w) == 0.0

    def test_integrate_never_projects(self, monkeypatch):
        import zns.harness

        def refuse(f):
            raise AssertionError("integrate projected a state")

        monkeypatch.setattr(zns.harness, "project_parity", refuse)
        cfg = tiny_config()
        forcing = Forcing(cfg.forcing, cfg.domain)
        stepper = Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h)
        w0, phi, partner = (initial_state(cfg.domain, s, 0.5) for s in (1, 2, 3))
        last = []
        integrate(stepper, forcing, w0, 0.0, 2.0, tangent=phi, partner=partner,
                  observe=lambda t, *states: last.append(states[:3]))
        assert len(last) == 200
        assert all(parity_error(f.field) == 0.0 for f in last[-1])

    def test_fractional_step_count_rejected(self):
        cfg = tiny_config()
        stepper = Stepper(cfg.domain, cfg.sim_config(0.1), 0.3)
        w0 = initial_state(cfg.domain, 0, 0.5)
        with pytest.raises(ValueError, match="whole number of steps"):
            integrate(stepper, zero_forcing(cfg.domain), w0, 0.0, 1.0)

    def test_end_before_start_rejected(self):
        cfg = tiny_config()
        stepper = Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h)
        w0 = initial_state(cfg.domain, 0, 0.5)
        with pytest.raises(ValueError, match="before the start time"):
            integrate(stepper, zero_forcing(cfg.domain), w0, 1.0, 0.5)

    def test_start_off_the_step_grid_rejected(self):
        cfg = tiny_config()
        stepper = Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h)
        w0 = initial_state(cfg.domain, 0, 0.5)
        with pytest.raises(ValueError, match="start time"):
            integrate(stepper, zero_forcing(cfg.domain), w0, 0.005, 0.105)

    def test_runaway_step_count_rejected(self):
        # From 5e8 steps on, a 1e-9 relative tolerance passes half a step, so a t_end
        # half a step off (here at 6e8 steps) would count as whole.
        assert _step_range(0.01, 0.0, 4e8 * 0.01) == (0, 400_000_000)
        with pytest.raises(ValueError, match="fewer than 5e\\+08"):
            _step_range(0.01, 0.0, (6e8 + 0.5) * 0.01)

    def test_resume_after_t_end_rejected(self, tmp_path):
        late = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=2.0)
        simulate(late, tmp_path / "late")
        early = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        with pytest.raises(ValueError, match="before the start time"):
            simulate(early, tmp_path / "b", resume_from=tmp_path / "late" / "state_final.zns")
        assert not (tmp_path / "b" / "state_final.zns").exists()


@pytest.fixture(scope="module")
def mixed_sweep():
    cfg = tiny_config()
    return cfg, run_epsilon_sweep(cfg)


class TestEpsilonSweep:
    def test_mixed_forcing_scaling_small_scale(self, mixed_sweep):
        _, record = mixed_sweep
        assert record.kind == "epsilon-sweep"
        assert not record.violations
        rows = record.summary["per_epsilon"]
        ratios = [r["ratio"] for r in rows]
        assert ratios == sorted(ratios, reverse=True)  # epsilons listed decreasing
        assert record.summary["slope"] >= 0.8

    def test_zonal_forcing_fast_part_reaches_roundoff(self):
        cfg = tiny_config(forcing=ZONAL, epsilons=(0.2, 0.1), t_spin=30.0, t_end=31.0)
        record = run_epsilon_sweep(cfg)
        assert not record.violations
        for row in record.summary["per_epsilon"]:
            assert row["sup_fast_sq"] < 1e-24
            assert row["ratio"] < 1e-23
        assert math.isnan(record.summary["slope"])

    def test_summary_recomputable_from_series(self, mixed_sweep):
        cfg, record = mixed_sweep
        summary, violations = summarize_epsilon_sweep(record.series, cfg, (cfg.seed,))
        assert summary == record.summary
        assert violations == record.violations

    def test_deterministic_outputs(self, tmp_path):
        cfg = tiny_config(epsilons=(0.2, 0.1), t_end=11.0)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_epsilon_sweep(cfg, out_dir=out1)
        run_epsilon_sweep(cfg, out_dir=out2)
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        assert "summary.csv" in files
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_ensemble_columns(self):
        cfg = tiny_config(epsilons=(0.1,), t_end=12.0)
        record = run_epsilon_sweep(cfg, n_seeds=3)
        row = record.summary["per_epsilon"][0]
        assert {f"seed{cfg.seed + i}" for i in range(3)} <= set(row)
        assert not record.violations

    def test_time_periodic_forcing_sweep(self):
        periodic = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)), sigma=1.0)
        cfg = tiny_config(forcing=periodic, epsilons=(0.2, 0.1), t_end=12.0)
        record = run_epsilon_sweep(cfg)
        rows = record.summary["per_epsilon"]
        assert rows[0]["ratio"] >= rows[1]["ratio"]
        assert not record.violations


@pytest.fixture(scope="module")
def small_contraction():
    cfg = tiny_config(epsilons=(0.02,), t_spin=8.0, t_end=16.0, record_every=5, seed=12)
    return cfg, run_contraction_test(cfg)


class TestContraction:
    def test_rates_and_monotonicity_small_scale(self, small_contraction):
        cfg, record = small_contraction
        assert not record.violations
        assert record.summary["rate_distance"] >= 0.5 * cfg.nu
        assert record.summary["rate_tangent"] >= 0.5 * cfg.nu
        assert record.summary["monotone_distance_tail"]
        # summary is a pure function of the stored curves
        summary, violations = summarize_contraction(record.curves, cfg, 0.02)
        assert summary == record.summary
        assert violations == record.violations

    def test_records_carry_budget_residuals(self, small_contraction):
        _, record = small_contraction
        (records,) = record.series.values()
        assert len(records) > 2
        assert all(math.isfinite(r.budget_residual) and r.budget_residual > 0
                   for r in records[1:])

    def test_identical_initial_data_rejected_by_rate_fit(self):
        # Identical initial data stay identical (test_identical_states_stay_identical),
        # so their distance curve is flat zero, which the rate fit must reject.
        cfg = tiny_config(epsilons=(0.05,), t_spin=2.0, t_end=4.0)
        ts = np.linspace(0.0, cfg.t_end, 41)
        curves = {"distance": [(t, 0.0) for t in ts], "tangent": [(t, math.exp(-t)) for t in ts]}
        summary, violations = summarize_contraction(curves, cfg, 0.05)
        assert any("rate fit rejected: distance" in v for v in violations)
        assert math.isnan(summary["rate_distance"])

    def test_identical_states_stay_identical(self):
        cfg = tiny_config()
        forcing = Forcing(cfg.forcing, cfg.domain)
        stepper = Stepper(cfg.domain, cfg.sim_config(0.05), cfg.h)
        w1 = initial_state(cfg.domain, 5, 0.5)
        w2 = w1.copy()
        for i in range(25):
            w1 = on_fields(stepper.step, w1, i * cfg.h, forcing)
            w2 = on_fields(stepper.step, w2, i * cfg.h, forcing)
        assert norm(w1 - w2) == 0.0

    def test_linear_regime_single_mode_rate(self):
        # In the linear flow (B = 0), a single fast mode decays at exactly mu |k|^2.
        d = Domain(N1=16, N2=16)
        mu = 0.8
        sim = SimConfig(epsilon=0.1, mu=mu)
        stepper = LinearStepper(d, sim, h=0.01)
        from zns.lattice import SpectralField

        a = 0.01
        phi = SpectralField.from_modes(
            d, {(1, 2): a, (1, -2): -a, (-1, -2): a, (-1, 2): -a}
        )
        ts, vals = [], []
        unforced = zero_forcing(d)
        for i in range(200):
            phi = on_fields(stepper.step, phi, i * 0.01, unforced)
            ts.append((i + 1) * 0.01)
            vals.append(norm(phi))
        rate = fit_exponential_rate(ts, vals)
        assert rate == pytest.approx(mu * 5.0, rel=1e-10)

    def test_violation_flagged_for_unreachable_rate(self):
        cfg = tiny_config(
            epsilons=(0.02,), t_spin=8.0, t_end=16.0, record_every=5, seed=12,
            tolerances=Tolerances(rate_factor=50.0),
        )
        record = run_contraction_test(cfg)
        assert any("THEOREM-VIOLATION" in v for v in record.violations)

    def test_requires_steady_forcing(self):
        periodic = ForcingSpec(modes=((1, 1, 0.5),), sigma=1.0)
        cfg = tiny_config(forcing=periodic)
        with pytest.raises(ValueError, match="steady"):
            run_contraction_test(cfg)

    def test_csv_written_only_with_out_dir(self, tmp_path, monkeypatch):
        cfg = tiny_config(epsilons=(0.05,), t_spin=0.5, t_end=1.0)
        monkeypatch.chdir(tmp_path)
        run_contraction_test(cfg)
        assert list(tmp_path.iterdir()) == []
        record = run_contraction_test(cfg, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "contraction.csv").read_text().splitlines()
        assert lines[0] == "t,distance,tangent"
        curves = zip(record.curves["distance"], record.curves["tangent"])
        assert lines[1:] == [f"{t!r},{d!r},{p!r}" for (t, d), (_, p) in curves]


class TestSteadyResidualSweep:
    def test_csv_written_only_with_out_dir(self, tmp_path, monkeypatch):
        cfg = tiny_config(t_spin=0.5, t_end=1.0, epsilons=(0.1, 0.05))
        monkeypatch.chdir(tmp_path)
        run_steady_residual_sweep(cfg)
        assert list(tmp_path.iterdir()) == []
        record = run_steady_residual_sweep(cfg, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "steady_residual.csv").read_text().splitlines()
        columns = ["epsilon", "residual", "distance", "end_rhs_norm"]
        assert lines[0] == ",".join(columns)
        assert lines[1:] == [",".join(repr(row[c]) for c in columns)
                             for row in record.summary["per_epsilon"]]

    def test_zonal_forcing_everything_vanishes(self):
        cfg = tiny_config(forcing=ZONAL, epsilons=(0.2, 0.1), t_spin=10.0, t_end=28.0)
        record = run_steady_residual_sweep(cfg)
        assert not record.violations
        for row in record.summary["per_epsilon"]:
            assert row["residual"] < 1e-12
            assert row["distance"] < 1e-9
            assert row["end_rhs_norm"] < 1e-9

    def test_nonconverged_rows_flagged(self):
        cfg = tiny_config(t_spin=0.5, t_end=1.0, epsilons=(0.1, 0.05))
        record = run_steady_residual_sweep(cfg)
        assert any("NON-CONVERGED" in v for v in record.violations)
        summary, violations = summarize_steady_sweep(
            record.summary["per_epsilon"], cfg
        )
        assert summary == record.summary
        assert violations == record.violations


@pytest.mark.parametrize("run", [run_epsilon_sweep, run_steady_residual_sweep,
                                 run_contraction_test, simulate], ids=lambda f: f.__name__)
def test_blowup_names_epsilon_and_seed(run, tmp_path):
    cfg = tiny_config(epsilons=(0.25, 0.1), blowup_threshold=1e-6, t_spin=0.5, t_end=1.0)
    args = (tmp_path / "run",) if run is simulate else ()
    with pytest.raises(BlowUpError, match=r"\(eps=0\.25, seed=3\)$"):
        run(cfg, *args)


@pytest.mark.parametrize("kind", ["epsilon-sweep", "contraction", "steady-residual", "simulate"])
def test_record_holds_the_config_its_summary_is_recomputed_from(kind, tmp_path):
    config = tiny_config(epsilons=(0.1, 0.05), t_spin=0.5, t_end=1.0, record_every=1)
    record = {
        "epsilon-sweep": lambda: run_epsilon_sweep(config, n_seeds=2),
        "contraction": lambda: run_contraction_test(config),
        "steady-residual": lambda: run_steady_residual_sweep(config),
        "simulate": lambda: simulate(config, tmp_path / "run"),
    }[kind]()
    assert record.kind == kind
    assert record.config is config
    assert record.config_hash == config_hash(config)
    recompute = {
        "epsilon-sweep": lambda r: summarize_epsilon_sweep(r.series, r.config,
                                                           tuple(r.summary["seeds"])),
        "contraction": lambda r: summarize_contraction(r.curves, r.config, r.config.epsilons[0]),
        "steady-residual": lambda r: summarize_steady_sweep(r.summary["per_epsilon"], r.config),
    }
    if kind in recompute:
        assert recompute[kind](record) == (record.summary, record.violations)


@pytest.mark.parametrize("member", ["tangent", "partner"])
def test_blowup_of_tangent_or_partner_names_it(member):
    # A growing tangent is a failed contraction, not a blow-up of the base state.
    cfg = tiny_config(blowup_threshold=1e3)
    stepper = Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h)
    w0 = initial_state(cfg.domain, 3, 1.0)
    big = initial_state(cfg.domain, 4, 1e7)
    with pytest.raises(BlowUpError, match=rf"\({member}\)$"):
        integrate(stepper, Forcing(cfg.forcing, cfg.domain), w0, 0.0, 0.1, **{member: big})


class TestSimulatePersistence:
    def test_outputs_and_snapshot_header(self, tmp_path):
        cfg = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        record = simulate(cfg, tmp_path / "run")
        assert (tmp_path / "run" / "diagnostics.csv").exists()
        w, eps, mu, t = read_snapshot(tmp_path / "run" / "state_final.zns")
        assert eps == 0.1 and mu == cfg.mu
        assert t == pytest.approx(1.0)
        assert record.summary["t_final"] == pytest.approx(1.0)

    def test_restart_equivalence(self, tmp_path):
        cfg_half = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=2.0)
        cfg_full = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=4.0)
        simulate(cfg_half, tmp_path / "half")
        simulate(cfg_full, tmp_path / "full")
        resumed = simulate(
            cfg_full, tmp_path / "resumed",
            resume_from=tmp_path / "half" / "state_final.zns",
        )
        w_full, *_ = read_snapshot(tmp_path / "full" / "state_final.zns")
        w_res, *_ = read_snapshot(tmp_path / "resumed" / "state_final.zns")
        assert norm(w_full - w_res) < 1e-10 * norm(w_full)
        assert resumed.summary["t_final"] == pytest.approx(4.0)

    def test_resume_is_bit_exact_off_the_cadences(self, tmp_path):
        # 150 steps against 75 steps plus a resume; 75 is not a multiple of record_every.
        kw = dict(epsilons=(0.1,), t_spin=0.5, record_every=4)
        simulate(tiny_config(t_end=1.5, **kw), tmp_path / "full", snapshot_every=0.5)
        simulate(tiny_config(t_end=0.75, **kw), tmp_path / "half")
        simulate(tiny_config(t_end=1.5, **kw), tmp_path / "resumed", snapshot_every=0.5,
                 resume_from=tmp_path / "half" / "state_final.zns")
        snaps = {run: sorted(p.name for p in (tmp_path / run).glob("state_t*.zns"))
                 for run in ("full", "resumed")}
        assert snaps["full"] == [f"state_t{t:.6f}.zns" for t in (0.5, 1.0, 1.5)]
        assert snaps["resumed"] == snaps["full"][1:]
        w_full, *_ = read_snapshot(tmp_path / "full" / "state_final.zns")
        w_res, *_ = read_snapshot(tmp_path / "resumed" / "state_final.zns")
        assert np.array_equal(w_full.coeffs, w_res.coeffs)
        full = (tmp_path / "full" / "diagnostics.csv").read_text().splitlines()
        resumed = (tmp_path / "resumed" / "diagnostics.csv").read_text().splitlines()
        # Same rows, times included, for every record after the resume point.
        t_resume = float(resumed[1].split(",")[0])
        assert resumed[2:] == [line for line in full[1:] if float(line.split(",")[0]) > t_resume]

    def test_snapshot_times_do_not_drift(self, tmp_path):
        # 1100 steps of 0.1 and a snapshot every 0.2: a running sum of 0.2 overtakes the
        # step times near t = 109 and would write the last five snapshots a step late.
        cfg = ExperimentConfig(
            domain=Domain(N1=8, N2=8), mu=0.5, epsilons=(0.1,),
            forcing=ForcingSpec(modes=((0, 1, 0.5), (1, 1, 0.2))),
            h=0.1, t_end=110.0, t_spin=1.0, omega0_norm=0.5, record_every=100,
        )
        simulate(cfg, tmp_path, snapshot_every=0.2)
        names = sorted(p.name for p in tmp_path.glob("state_t*.zns"))
        assert names == sorted(f"state_t{k * 0.2:.6f}.zns" for k in range(1, 551))

    @given(split=st.integers(1, 39), record_every=st.integers(1, 12))
    @settings(max_examples=12, deadline=None)
    def test_split_run_matches_uninterrupted_run(self, split, record_every):
        kw = dict(epsilons=(0.1,), t_spin=0.001, record_every=record_every)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            simulate(tiny_config(t_end=0.4, **kw), tmp / "full")
            simulate(tiny_config(t_end=split * 0.01, **kw), tmp / "half")
            simulate(tiny_config(t_end=0.4, **kw), tmp / "resumed",
                     resume_from=tmp / "half" / "state_final.zns")
            w_full, *_ = read_snapshot(tmp / "full" / "state_final.zns")
            w_res, *_ = read_snapshot(tmp / "resumed" / "state_final.zns")
            rows = {run: (tmp / run / "diagnostics.csv").read_text().splitlines()[1:]
                    for run in ("full", "half", "resumed")}
        assert np.array_equal(w_full.coeffs, w_res.coeffs)
        t_split = float(rows["resumed"][0].split(",")[0])
        before = [r for r in rows["full"] if float(r.split(",")[0]) < t_split]
        after = [r for r in rows["full"] if float(r.split(",")[0]) > t_split]
        # The half run also records its last step, on the cadence or not.
        assert rows["half"][:-1] == before
        assert rows["half"][-1].split(",")[0] == rows["resumed"][0].split(",")[0]
        assert rows["resumed"][1:] == after

    def test_snapshot_every(self, tmp_path):
        cfg = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        simulate(cfg, tmp_path / "snaps", snapshot_every=0.5)
        names = sorted(p.name for p in (tmp_path / "snaps").glob("state_t*.zns"))
        assert len(names) == 2

    def test_non_real_snapshot_rejected(self, tmp_path):
        cfg = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        simulate(tiny_config(epsilons=(0.1,), t_spin=0.25, t_end=0.5), tmp_path / "a")
        w, eps, mu, t = read_snapshot(tmp_path / "a" / "state_final.zns")
        w.coeffs[3, -2] += 1e-6 * np.abs(w.coeffs).max()  # one m1 < 0 coefficient
        write_snapshot(tmp_path / "bad.zns", w, eps, mu, t)
        with pytest.raises(ValueError, match="not a real field"):
            simulate(cfg, tmp_path / "b", resume_from=tmp_path / "bad.zns")
        # The untouched snapshot resumes onto the uninterrupted run.
        simulate(cfg, tmp_path / "full")
        simulate(cfg, tmp_path / "c", resume_from=tmp_path / "a" / "state_final.zns")
        w_full, *_ = read_snapshot(tmp_path / "full" / "state_final.zns")
        w_res, *_ = read_snapshot(tmp_path / "c" / "state_final.zns")
        assert np.array_equal(w_full.coeffs, w_res.coeffs)

    @staticmethod
    def _with_even_part(w, size):
        """``w`` plus a real field that is even in y: one mode (1, 2) and its mirror."""
        w = w.copy()
        w.coeffs[2, 1] += size
        w.coeffs[-2, -1] += size
        assert reality_error(w) == 0.0 and parity_error(w) > 0.0
        return w

    def test_snapshot_not_odd_rejected(self, tmp_path):
        cfg = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        simulate(tiny_config(epsilons=(0.1,), t_spin=0.25, t_end=0.5), tmp_path / "a")
        w, eps, mu, t = read_snapshot(tmp_path / "a" / "state_final.zns")
        w = self._with_even_part(w, 1e-6 * np.abs(w.coeffs).max())
        write_snapshot(tmp_path / "even.zns", w, eps, mu, t)
        with pytest.raises(ValueError, match="not odd in y"):
            simulate(cfg, tmp_path / "b", resume_from=tmp_path / "even.zns")

    def test_nearly_odd_snapshot_is_projected_on_load(self, tmp_path):
        kw = dict(epsilons=(0.1,), t_spin=0.25)
        simulate(tiny_config(t_end=0.5, **kw), tmp_path / "a")
        w, eps, mu, t = read_snapshot(tmp_path / "a" / "state_final.zns")
        assert parity_error(w) == 0.0  # written exactly odd
        w = self._with_even_part(w, 1e-14 * np.abs(w.coeffs).max())
        write_snapshot(tmp_path / "nearly.zns", w, eps, mu, t)
        simulate(tiny_config(t_end=1.0, **kw), tmp_path / "b",
                 resume_from=tmp_path / "nearly.zns")
        # Projected once on load, the state stays exactly odd through the 50 resumed steps.
        w_b, *_ = read_snapshot(tmp_path / "b" / "state_final.zns")
        assert parity_error(w_b) == 0.0

    def test_snapshot_epsilon_is_cfl_checked(self, tmp_path):
        # A resume runs only at one of the config's epsilons, each CFL-checked with the
        # config: eps = 1000 fails that check, so a snapshot at 1000 is refused outright.
        with pytest.raises(ValueError, match="CFL"):
            tiny_config(epsilons=(0.1, 1000.0), t_spin=0.5, t_end=1.0)
        cfg = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        simulate(tiny_config(epsilons=(0.1,), t_spin=0.25, t_end=0.5), tmp_path / "a")
        w, _, mu, t = read_snapshot(tmp_path / "a" / "state_final.zns")
        write_snapshot(tmp_path / "fast.zns", w, 1000.0, mu, t)
        with pytest.raises(ValueError, match=r"list \(0\.1,\) does not match snapshot "
                                             r"epsilon=1000\.0$"):
            simulate(cfg, tmp_path / "b", resume_from=tmp_path / "fast.zns")
        assert not (tmp_path / "b").exists()

    def test_domain_mismatch_rejected(self, tmp_path):
        cfg = tiny_config(epsilons=(0.1,), t_spin=0.5, t_end=1.0)
        simulate(cfg, tmp_path / "a")
        other = tiny_config(
            domain=Domain(N1=32, N2=32), epsilons=(0.1,), t_spin=0.5, t_end=1.0
        )
        with pytest.raises(ValueError, match="domain"):
            simulate(other, tmp_path / "b", resume_from=tmp_path / "a" / "state_final.zns")


def test_write_csv_keeps_the_old_file_when_interrupted(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["a"], [[1]])
    before = path.read_text()

    def rows():
        yield [2]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_csv(path, ["a"], rows())
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_diagnostics_csv_schema(tmp_path):
    cfg = tiny_config()
    forcing = Forcing(cfg.forcing, cfg.domain)
    w0 = initial_state(cfg.domain, 0, 0.5)
    stepper = Stepper(cfg.domain, cfg.sim_config(0.1), cfg.h)
    _, records = integrate(stepper, forcing, w0, 0.0, 0.5)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, records)
    header = path.read_text().splitlines()[0]
    assert header == (
        "t,enstrophy,grad_enstrophy,zonal_sq,fast_sq,"
        "fast_h1_sq,fast_h2_sq,budget_residual,max_velocity"
    )
