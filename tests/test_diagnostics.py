"""Norms, Grashof/dimension formulas, sup-norm check, approximate steady state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zns.diagnostics import (
    agmon_check,
    approx_steady_state,
    dim_bound,
    grashof,
    record_state,
    sobolev_norm,
    steady_residual,
)
from zns.forcing import ForcingSpec, make_forcing
from zns.lattice import Domain, SpectralField, inner, norm, random_field, to_grid
from zns.operators import split, velocity

BENCHMARK = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))


class TestSobolevNorm:
    def test_single_mode_scaling(self):
        d = Domain(N1=16, N2=16)
        f = SpectralField.from_modes(d, {(2, 1): 1.0, (-2, -1): 1.0})
        base = norm(f)
        for s in (-1.0, 0.0, 1.0, 2.0, 0.5):
            assert sobolev_norm(f, s) == pytest.approx(5.0 ** (s / 2) * base, rel=1e-13)

    def test_s0_matches_grid_rms(self, rng):
        d = Domain(N1=16, N2=16)
        f = random_field(d, rng, norm_target=2.0)
        rms = float(np.sqrt(np.mean(to_grid(f).values ** 2)))
        assert sobolev_norm(f, 0.0) == pytest.approx(rms * math.sqrt(d.area), rel=1e-12)

    def test_poincare_inequality_ensemble(self, rng):
        d = Domain(N1=16, N2=16)
        for _ in range(1000):
            f = random_field(d, rng)
            assert sobolev_norm(f, 1.0) >= d.c0 * sobolev_norm(f, 0.0) * (1 - 1e-13)

    def test_poincare_uses_min_wavenumber_on_rectangles(self, rng):
        d = Domain(L1=4 * np.pi, L2=2 * np.pi, N1=16, N2=16)
        assert d.c0 == pytest.approx(0.5)
        f = SpectralField.from_modes(d, {(1, 1): 1.0, (-1, -1): 1.0})
        assert sobolev_norm(f, 1.0) >= d.c0 * sobolev_norm(f, 0.0)

    def test_decomposition_identity(self, rng):
        d = Domain(N1=16, N2=16)
        for _ in range(25):
            f = random_field(d, rng, norm_target=1.0)
            zonal, fast = split(f)
            for s in (0.0, 1.0, 2.0):
                whole = sobolev_norm(f, s) ** 2
                parts = sobolev_norm(zonal, s) ** 2 + sobolev_norm(fast, s) ** 2
                assert abs(whole - parts) < 1e-12 * whole

    def test_rejects_s_below_minus_one(self, rng):
        f = random_field(Domain(N1=8, N2=8), rng)
        with pytest.raises(ValueError):
            sobolev_norm(f, -2.0)


class TestGrashof:
    def test_reference_values(self):
        d = Domain(N1=16, N2=16)
        forcing = make_forcing(BENCHMARK, d)
        g_inv = sobolev_norm(forcing(0.0), -1.0)
        assert grashof(forcing, 1.0) == pytest.approx(g_inv)
        assert grashof(forcing, 0.5) == pytest.approx(4.0 * g_inv)

    def test_rejects_nonpositive_mu(self):
        forcing = make_forcing(BENCHMARK, Domain(N1=16, N2=16))
        with pytest.raises(ValueError):
            grashof(forcing, 0.0)


class TestDimBound:
    def test_unit_grashof(self):
        assert dim_bound(1.0, 3.0) == pytest.approx(3.0)

    def test_at_e(self):
        assert dim_bound(math.e, 1.0) == pytest.approx(math.e ** (2 / 3) * 2 ** (1 / 3))

    @given(g=st.floats(1.0, 1e8), dg=st.floats(1e-6, 10.0))
    @settings(max_examples=200)
    def test_monotone_for_large_grashof(self, g, dg):
        assert dim_bound(g + dg, 1.0) >= dim_bound(g, 1.0)

    def test_log_clamp_below_e_inverse(self):
        assert dim_bound(0.5, 1.0) == pytest.approx(0.5 ** (2 / 3) * (1 + math.log(0.5)) ** (1 / 3))
        assert dim_bound(0.1, 1.0) == 0.0

    def test_deterministic(self):
        assert dim_bound(7.25, 2.0) == dim_bound(7.25, 2.0)


class TestAgmonCheck:
    def test_single_mode_worked_example(self):
        # w = u = 2 cos(x): kappa = 1, rhs = |grad w|, and the ratio is
        # |u|_inf / |grad u| = 2 / (2 sqrt(2) pi) with the conjugate pair
        # folded into the real field (convention fixed here).
        d = Domain(N1=32, N2=32)
        u = SpectralField.from_modes(d, {(1, 0): 1.0, (-1, 0): 1.0})
        v = SpectralField.zeros(d)
        rep = agmon_check(u, v, constant_candidate=1.0)
        assert rep.kappa == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(sobolev_norm(u, 1.0))
        assert rep.lhs == pytest.approx(2.0)
        assert rep.ratio == pytest.approx(1.0 / (math.sqrt(2.0) * math.pi), rel=1e-12)
        assert not rep.violation

    def test_zero_u_gives_zero_ratio(self, rng):
        d = Domain(N1=16, N2=16)
        v = random_field(d, rng, norm_target=1.0)
        rep = agmon_check(SpectralField.zeros(d), v, 1.0)
        assert rep.ratio == 0.0 and rep.lhs == 0.0

    def test_error_paths(self, rng):
        d = Domain(N1=16, N2=16)
        u = random_field(d, rng, norm_target=1.0)
        with pytest.raises(ValueError):
            agmon_check(u, u, 1.0)  # far from orthogonal
        z = SpectralField.zeros(d)
        with pytest.raises(ValueError):
            agmon_check(z, z, 1.0)  # |grad w| = 0

    def test_constructive_chain_on_ensemble(self, rng):
        d = Domain(N1=32, N2=32)
        for _ in range(100):
            u = random_field(d, rng, odd_in_y=False)
            v = random_field(d, rng, odd_in_y=False)
            v = v - u * (inner(u, v) / norm(u) ** 2)
            rep = agmon_check(u, v, constant_candidate=1.0)
            assert rep.lhs <= (rep.low_sum + rep.high_sum) * (1 + 1e-12)
            assert rep.low_sum <= rep.low_bound * (1 + 1e-12)
            assert rep.high_sum <= rep.high_bound * (1 + 1e-12)
            assert math.isfinite(rep.ratio)
            assert not rep.violation

    def test_violation_flagged_for_tiny_candidate(self, rng):
        d = Domain(N1=16, N2=16)
        u = random_field(d, rng, norm_target=1.0)
        v = random_field(d, rng, norm_target=1.0)
        v = v - u * (inner(u, v) / norm(u) ** 2)
        assert agmon_check(u, v, constant_candidate=1e-12).violation

    def test_oversampled_maximum_dominates(self, rng):
        d = Domain(N1=16, N2=16)
        u = random_field(d, rng, kmax=5.0, norm_target=1.0)
        v = SpectralField.zeros(d)
        r1 = agmon_check(u, v, 1.0, oversample=1)
        r4 = agmon_check(u, v, 1.0, oversample=4)
        assert r4.lhs >= r1.lhs * (1 - 1e-13)
        assert r4.lhs <= r1.lhs * 1.5  # band-limited: oversampling refines mildly
        # Reference embedding: each coefficient at its own mode of the 4x lattice.
        big = Domain(d.L1, d.L2, 4 * d.N1, 4 * d.N2)
        embedded = SpectralField.zeros(big)
        for i2, m2 in enumerate(d.m2):
            for i1, m1 in enumerate(d.m1):
                embedded.coeffs[m2 % big.N2, m1 % big.N1] = u.coeffs[i2, i1]
        assert r4.lhs == float(np.max(np.abs(to_grid(embedded).values)))


class TestApproxSteadyState:
    def test_zonal_forcing_exact(self):
        d = Domain(N1=32, N2=32)
        mu, eps = 0.5, 0.05
        forcing = make_forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)
        w_star = approx_steady_state(forcing, mu, eps)
        # -1/mu * invLap(2 sin y) = (2/mu) sin y = 4 sin y
        g = to_grid(w_star).values
        assert np.allclose(g, 4.0 * np.sin(d.grid_y())[:, None], atol=1e-13)
        assert steady_residual(w_star, forcing, mu, eps) < 1e-12

    def test_fast_part_hand_value(self):
        d = Domain(N1=32, N2=32)
        mu, eps = 0.5, 0.05
        forcing = make_forcing(ForcingSpec(modes=((1, 1, 0.5),)), d)
        w_star = approx_steady_state(forcing, mu, eps)
        f0 = forcing(0.0)
        # per mode: eps * c / (i Omega) = eps * c * i |k|^2 / k1 = 2i eps c at (1,1)
        assert w_star.get_mode(1, 1) == pytest.approx(eps * 2j * f0.get_mode(1, 1))

    def test_fast_norm_linear_in_eps(self):
        d = Domain(N1=32, N2=32)
        forcing = make_forcing(BENCHMARK, d)
        n1 = norm(split(approx_steady_state(forcing, 0.5, 0.02))[1])
        n2 = norm(split(approx_steady_state(forcing, 0.5, 0.01))[1])
        assert n1 == pytest.approx(2.0 * n2, rel=1e-13)

    def test_requires_steady_forcing(self):
        d = Domain(N1=16, N2=16)
        periodic = make_forcing(
            ForcingSpec(modes=((1, 1, 0.5),), kind="time-periodic", sigma=1.0), d
        )
        with pytest.raises(ValueError):
            approx_steady_state(periodic, 0.5, 0.1)
        with pytest.raises(ValueError):
            steady_residual(SpectralField.zeros(d), periodic, 0.5, 0.1)

    def test_residual_first_order_in_eps(self):
        d = Domain(N1=32, N2=32)
        mu = 0.5
        forcing = make_forcing(BENCHMARK, d)
        epsilons = (0.1, 0.05, 0.025)
        residuals = [
            steady_residual(approx_steady_state(forcing, mu, e), forcing, mu, e)
            for e in epsilons
        ]
        slope = np.polyfit(np.log(epsilons), np.log(residuals), 1)[0]
        assert 0.8 <= slope <= 1.2


class TestDiagnosticsRecord:
    def test_norm_decomposition_and_nonnegativity(self, rng):
        d = Domain(N1=16, N2=16)
        w = random_field(d, rng, norm_target=1.5)
        rec = record_state(w, 2.5, budget=1e-9)
        assert rec.t == 2.5
        assert abs(rec.enstrophy - (rec.zonal_sq + rec.fast_sq)) < 1e-12 * rec.enstrophy
        for name in ("enstrophy", "grad_enstrophy", "zonal_sq", "fast_sq",
                     "fast_h1_sq", "fast_h2_sq", "max_velocity"):
            assert getattr(rec, name) >= 0.0

    @pytest.mark.parametrize("d", [
        pytest.param(Domain(N1=16, N2=16), id="16x16"),
        pytest.param(Domain(N1=24, N2=16), id="24x16"),
        pytest.param(Domain(N1=16, N2=32), id="16x32"),
        pytest.param(Domain(L1=4 * np.pi, L2=2 * np.pi, N1=16, N2=16), id="L1=4pi"),
        pytest.param(Domain(L1=2 * np.pi, L2=3 * np.pi, N1=24, N2=16), id="24x16-L2=3pi"),
    ])
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
    def test_matches_definitions(self, d, odd, rng):
        w = random_field(d, rng, norm_target=1.5, odd_in_y=odd)
        zonal, fast = split(w)
        want = {
            "enstrophy": norm(w) ** 2,
            "grad_enstrophy": sobolev_norm(w, 1.0) ** 2,
            "zonal_sq": norm(zonal) ** 2,
            "fast_sq": norm(fast) ** 2,
            "fast_h1_sq": sobolev_norm(fast, 1.0) ** 2,
            "fast_h2_sq": sobolev_norm(fast, 2.0) ** 2,
            "max_velocity": velocity(w).max_speed(),
        }
        rec = record_state(w, 0.75, budget=0.25)
        assert (rec.t, rec.budget_residual) == (0.75, 0.25)
        for name, value in want.items():
            got = getattr(rec, name)
            assert type(got) is float
            assert abs(got - value) <= 1e-13 * value, name

    def test_zonal_state_has_exactly_zero_fast_norms(self, rng):
        d = Domain(N1=16, N2=24)
        zonal, _ = split(random_field(d, rng, norm_target=1.0))
        rec = record_state(zonal, 0.0)
        assert rec.zonal_sq > 0.0 and rec.enstrophy > 0.0
        assert (rec.fast_sq, rec.fast_h1_sq, rec.fast_h2_sq) == (0.0, 0.0, 0.0)
