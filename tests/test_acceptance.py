"""Acceptance criteria: one test per criterion, each at its stated tolerance.

Each test prints an ``ACCEPTANCE <n> PASS/FAIL`` line (visible with ``-s`` or
in captured output).  The heavyweight runs (benchmark sweep, seed ensemble,
contraction) are shared module-scoped fixtures; everything else is computed
in place.  Total runtime is a few minutes on commodity hardware.
"""

import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from zns.config import load_config
from zns.diagnostics import agmon_check, approx_steady_state, steady_residual
from zns.forcing import Forcing, ForcingSpec
from zns.harness import run_contraction_test, run_epsilon_sweep
from zns.lattice import Domain, inner, norm, random_field
from zns.operators import (
    apply_A,
    apply_L,
    jacobian,
    triad_scan,
)
from zns.stepper import SimConfig, Stepper

from conftest import LinearStepper, field_forcing, on_fields, triad_sum_oracle

BENCHMARK = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))
SWEEP_EPSILONS = (0.1, 0.05, 0.025, 0.0125)


@contextmanager
def criterion(n: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {n} PASS: {description} [{elapsed:.1f}s]")


# The three heavyweight runs read the shipped configs, their one home.
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def benchmark_sweep():
    config = load_config(CONFIGS / "benchmark_sweep.cfg")
    return config, run_epsilon_sweep(config)


@pytest.fixture(scope="module")
def seed_ensemble():
    config = load_config(CONFIGS / "seed_ensemble.cfg")
    return config, run_epsilon_sweep(config, n_seeds=3)


@pytest.fixture(scope="module")
def contraction_run():
    config = load_config(CONFIGS / "contraction.cfg")
    return config, run_contraction_test(config)


def test_criterion_1_triad_identity():
    with criterion(1, "exhaustive triad identity scan, |j|,|k| <= 16"):
        domain = Domain()
        started = time.monotonic()
        reports = triad_scan(domain, 16)
        elapsed = time.monotonic() - started
        worst = max(r.residual for r in reports)
        assert len(reports) > 10_000
        assert worst < 1e-10 * domain.area
        assert elapsed < 10.0


def test_criterion_2_operator_identities():
    with criterion(2, "bilinear/rotation/dissipation identities on 100 random fields"):
        domain = Domain(N1=64, N2=64)
        rng = np.random.default_rng(2)
        started = time.monotonic()
        for _ in range(100):
            a = random_field(domain, rng, kmax=domain.N1 / 4, norm_target=1.0)
            b = random_field(domain, rng, kmax=domain.N1 / 4, norm_target=1.0)
            j = jacobian(a, b)
            assert abs(inner(j, b)) <= 1e-12 * norm(j) * norm(b)
            lf = apply_L(a)
            assert abs(inner(lf, a)) <= 1e-12 * norm(lf) * norm(a)
            grad_sq = domain.area * float(np.sum(domain.ksq * np.abs(a.coeffs) ** 2))
            assert abs(inner(apply_A(a), a) - grad_sq) <= 1e-13 * grad_sq
        assert time.monotonic() - started < 10.0


def test_criterion_3_nonlinear_oracle_equivalence():
    with criterion(3, "pseudo-spectral advection matches the analytic triad sum"):
        domain = Domain(N1=32, N2=32)
        rng = np.random.default_rng(3)
        started = time.monotonic()
        for _ in range(5):
            a = random_field(domain, rng, kmax=5.0, norm_target=1.0)
            b = random_field(domain, rng, kmax=5.0, norm_target=1.0)
            fast = jacobian(a, b)
            slow = triad_sum_oracle(a, b)
            assert norm(fast - slow) <= 1e-12 * norm(slow)
        assert time.monotonic() - started < 30.0


def test_criterion_4_integrator_order():
    with criterion(4, "manufactured-solution order >= 3.7 and stiff linear exactness"):
        started = time.monotonic()
        domain = Domain(N1=16, N2=16)
        rng = np.random.default_rng(4)
        eps, mu = 0.5, 0.3
        chi1 = random_field(domain, rng, kmax=3.0, norm_target=3.0)
        chi2 = random_field(domain, rng, kmax=3.0, norm_target=3.0)

        def exact(t):
            return math.sin(2.0 * t + 0.4) * chi1 + math.cos(1.1 * t) * chi2

        def exact_dt(t):
            return 2.0 * math.cos(2.0 * t + 0.4) * chi1 - 1.1 * math.sin(1.1 * t) * chi2

        @field_forcing
        def forcing(t):
            w = exact(t)
            return exact_dt(t) + jacobian(w, w) + apply_L(w) * (1 / eps) + apply_A(w) * mu

        sim = SimConfig(epsilon=eps, mu=mu)
        T = 0.4
        steps = (1e-2, 5e-3, 2.5e-3)
        errors = []
        for h in steps:
            stepper = Stepper(domain, sim, h)
            w = exact(0.0)
            for i in range(int(round(T / h))):
                w = on_fields(stepper.step, w, i * h, forcing)
            errors.append(norm(w - exact(T)))
        order = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
        assert order >= 3.7, f"fitted order {order:.2f}"

        # linear sub-problem at eps = 1e-6: one exponential, no step restriction
        stiff = SimConfig(epsilon=1e-6, mu=0.5)
        stepper = LinearStepper(domain, stiff, h=0.01)
        w0 = random_field(domain, rng, norm_target=1.0)
        w1 = on_fields(stepper.step, w0, 0.0)
        expected = np.exp(stepper.lam * 0.01) * w0.coeffs
        assert np.max(np.abs(w1.coeffs - expected)) <= 1e-15
        assert time.monotonic() - started < 60.0


def test_criterion_5_zonalization_scaling(benchmark_sweep):
    with criterion(5, "late-window sup|fast|^2: bounded ratio, slope >= 0.8"):
        config, record = benchmark_sweep
        assert not record.violations, record.violations
        rows = record.summary["per_epsilon"]
        ratios = [r["ratio"] for r in rows]
        assert all(math.isfinite(r) for r in ratios)
        # nonincreasing as epsilon decreases (epsilons are listed decreasing)
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ratios, ratios[1:]))
        slope = record.summary["slope"]
        assert slope >= 0.8, f"slope {slope:.3f}"
        print(f"  sup|fast|^2/eps: {[f'{r:.3e}' for r in ratios]}, slope {slope:.2f}")


def test_criterion_6_h1_zonalization_scaling(benchmark_sweep):
    with criterion(6, "late-window sup|grad fast|^2: bounded ratio, slope >= 0.8"):
        _, record = benchmark_sweep
        rows = record.summary["per_epsilon"]
        ratios = [r["ratio_h1"] for r in rows]
        assert all(math.isfinite(r) for r in ratios)
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ratios, ratios[1:]))
        slope = record.summary["slope_h1"]
        assert slope >= 0.8, f"slope_h1 {slope:.3f}"


def test_criterion_7_attractor_collapse(contraction_run):
    with criterion(7, "two-trajectory and tangent contraction at eps = 0.01"):
        config, record = contraction_run
        assert not record.violations, record.violations
        nu = record.summary["nu"]
        assert record.summary["rate_distance"] >= 0.5 * nu
        assert record.summary["rate_tangent"] >= 0.5 * nu
        assert record.summary["monotone_distance_tail"]
        print(
            f"  nu={nu:g}, distance rate {record.summary['rate_distance']:.3f}, "
            f"tangent rate {record.summary['rate_tangent']:.3f}"
        )


def test_criterion_8_approximate_steady_state():
    with criterion(8, "first-order steady flow: O(eps) residual, exact zonal case"):
        started = time.monotonic()
        domain = Domain(N1=64, N2=64)
        mu = 0.5
        forcing = Forcing(BENCHMARK, domain)
        residuals = [
            steady_residual(approx_steady_state(forcing, mu, e), forcing, mu, e)
            for e in SWEEP_EPSILONS
        ]
        slope = float(np.polyfit(np.log(SWEEP_EPSILONS), np.log(residuals), 1)[0])
        assert 0.8 <= slope <= 1.2, f"residual slope {slope:.3f}"

        zonal = Forcing(ForcingSpec(modes=((0, 1, 1.0),)), domain)
        w_star = approx_steady_state(zonal, mu, 0.05)
        assert steady_residual(w_star, zonal, mu, 0.05) < 1e-12
        assert time.monotonic() - started < 60.0


def test_criterion_9_agmon_ensemble():
    with criterion(9, "sup-norm inequality over 1000 orthogonal pairs at 64^2"):
        started = time.monotonic()
        domain = Domain(N1=64, N2=64)
        rng = np.random.default_rng(9)
        # Empirical constant frozen from the ensemble scan (max observed
        # ratio ~0.017 under this normalization; 3x margin).
        CONSTANT = 0.05
        worst = 0.0
        for _ in range(1000):
            u = random_field(domain, rng, odd_in_y=False)
            v = random_field(domain, rng, odd_in_y=False)
            v = v - u * (inner(u, v) / norm(u) ** 2)
            rep = agmon_check(u, v, constant_candidate=CONSTANT)
            worst = max(worst, rep.ratio)
            assert not rep.violation
            assert rep.lhs <= (rep.low_sum + rep.high_sum) * (1 + 1e-12)
            assert rep.low_sum <= rep.low_bound * (1 + 1e-12)
            assert rep.high_sum <= rep.high_bound * (1 + 1e-12)
        assert time.monotonic() - started < 60.0
        print(f"  max ratio {worst:.4f} <= {CONSTANT}")


def test_criterion_10_long_time_enstrophy_bound(seed_ensemble):
    with criterion(10, "late-window |w| <= C |grad^-1 f|/mu, C stable across seeds"):
        config, record = seed_ensemble
        assert not record.violations, record.violations
        row = record.summary["per_epsilon"][0]
        constants = [row[f"seed{s}"]["bound_constant"] for s in record.summary["seeds"]]
        mean_c = sum(constants) / len(constants)
        spread = (max(constants) - min(constants)) / mean_c
        assert spread <= 0.20, f"C spread {spread:.3f}"
        # the reported constant reproduces the bound on every seed
        bound = max(constants) * record.summary["grad_inv_f"] / config.mu
        for s in record.summary["seeds"]:
            assert row[f"seed{s}"]["sup_norm"] <= bound * (1 + 1e-12)
        # initial-data independence: sup|fast|^2 agrees across seeds to 10%
        fasts = [row[f"seed{s}"]["sup_fast_sq"] for s in record.summary["seeds"]]
        assert (max(fasts) - min(fasts)) / (sum(fasts) / 3) <= 0.10
        print(f"  C per seed: {[f'{c:.3f}' for c in constants]}")
