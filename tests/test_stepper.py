"""Exponential integrator: weights, exactness, order, tangent propagation."""

import dataclasses
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zns.lattice
from zns.diagnostics import sobolev_norm
from zns.forcing import Forcing, ForcingSpec
from zns.lattice import (
    Domain,
    SpectralField,
    _irfft2,
    _rfft2,
    inner,
    norm,
    parity_error,
    project_parity,
    random_field,
    reality_error,
)
from zns.operators import _advect_raw, _BandKernel, apply_A, apply_L, jacobian
from zns.stepper import (
    BlowUpError,
    OddBand,
    SimConfig,
    Stepper,
    budget_residual,
    build_coefficients,
    _phi,
)

from conftest import KERNEL_DOMAINS, LinearStepper, field_forcing, on_fields

mpmath.mp.dps = 40


def phi_reference(z: complex, m: int) -> complex:
    """Extended-precision phi_m oracle (series near 0, 40-digit formula else)."""
    zm = mpmath.mpc(z)
    if abs(zm) < 1.0:
        total = mpmath.mpc(0)
        for n in range(80):
            total += zm**n / mpmath.factorial(n + m)
        return complex(total)
    ez = mpmath.exp(zm)
    if m == 1:
        return complex((ez - 1) / zm)
    if m == 2:
        return complex((ez - 1 - zm) / zm**2)
    return complex((ez - 1 - zm - zm**2 / 2) / zm**3)


def phi_extended(z: complex, m: int) -> mpmath.mpc:
    """phi_m(z), z != 0, unrounded at the working precision: the recurrence, with the
    digits that it cancels below |z| = 1 added while it runs."""
    zm = mpmath.mpc(z)
    with mpmath.extradps(5 + m * max(0, int(-mpmath.log10(abs(zm))))):
        out = mpmath.exp(zm)
        for n in range(m):
            out = (out - 1 / mpmath.factorial(n)) / zm
    return +out


class TestPhiFunctions:
    def test_analytic_limits_at_zero(self):
        z = np.array([0.0 + 0.0j])
        assert _phi(z, 1)[0] == pytest.approx(1.0)
        assert _phi(z, 2)[0] == pytest.approx(0.5)
        assert _phi(z, 3)[0] == pytest.approx(1.0 / 6.0)

    def test_phi1_at_one(self):
        got = _phi(np.array([1.0 + 0.0j]), 1)[0]
        assert got == pytest.approx(math.e - 1.0, rel=1e-14)

    @given(
        re=st.floats(-30.0, 3.0),
        im=st.floats(-50.0, 50.0),
        m=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_extended_precision(self, re, im, m):
        z = complex(re, im)
        got = _phi(np.array([z]), m)[0]
        want = phi_reference(z, m)
        assert abs(got - want) <= 1e-13 * max(abs(want), 1e-3)

    def test_no_overflow_for_extreme_arguments(self):
        z = np.array([-1e3 + 1e6j, -1e8 + 0j, 0.0 - 1e7j])
        for m in (1, 2, 3):
            vals = _phi(z, m)
            assert np.all(np.isfinite(vals))
        # reference for the headline extreme value
        want = phi_reference(-1e3 + 1e6j, 1)
        got = _phi(np.array([-1e3 + 1e6j]), 1)[0]
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("z, m", [(-1e3 + 1e150j, 3), (1e155j, 2), (1e155j, 3),
                                      (-1e103 + 1e103j, 2), (-1e103 + 1e103j, 3)])
    def test_matches_extended_precision_where_powers_overflow(self, z, m):
        # z**2 overflows past |z| ~ 1e154 and z**3 past ~5.6e102; the direct formulas gave
        # 0 or NaN there.
        got = _phi(np.array([z]), m)[0]
        want = phi_reference(z, m)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_continuity_across_series_threshold(self):
        # Just inside and just outside |z| = 1, where the series gives way to the recurrence.
        for z in (0.9999 + 0.0j, 1.0001 + 0.0j, -0.9999 + 0.0j, -1.0001 + 0.0j,
                  0.707 + 0.707j, 0.7072 + 0.7072j, -0.707 - 0.707j, -0.7072 - 0.7072j):
            for m in (1, 2, 3):
                got = _phi(np.array([z]), m)[0]
                assert abs(got - phi_reference(z, m)) < 1e-14


class TestCoefficients:
    def test_rk4_limit_at_zero_symbol(self):
        d = Domain(N1=8, N2=8)
        h = 0.25
        co = build_coefficients(d, np.zeros((8, 8), dtype=complex), h)
        assert np.allclose(co.E, 1.0)
        assert np.allclose(co.Q, h / 2)
        assert np.allclose(co.f1, h / 6)
        assert np.allclose(co.f2, h / 6)
        assert np.allclose(co.f3, h / 6)

    def test_symbol_real_part_bound(self):
        d = Domain(N1=16, N2=16)
        lam = Stepper(d, SimConfig(epsilon=0.01, mu=0.3), 0.1).lam
        assert np.all(lam[d.ksq > 0].real <= -0.3 * d.c0**2 + 1e-15)
        assert np.all(np.abs(np.exp(lam * 0.1)) <= 1.0 + 1e-15)

    def test_symbol_imaginary_when_inviscid(self):
        d = Domain(N1=8, N2=8)
        lam = Stepper(d, SimConfig(epsilon=0.5, mu=0.0), 0.1).lam
        assert np.all(lam.real == 0.0)

    def test_shared_tables_are_read_only(self):
        stepper = Stepper(Domain(N1=8, N2=8), SimConfig(epsilon=0.5, mu=1.0), 0.01)
        k = stepper.coeffs
        for table in (stepper.lam, k.E, k.E2, k.Q, k.f1, k.f2, k.f3):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        tables = (k.E, k.E2, k.Q, k.f1, k.f2, k.f3)
        assert all(x.flags.c_contiguous and x.shape == (2, 3) for x in tables)

    def test_refuses_weights_that_overflow(self):
        # The weights stay finite while lambda h is; at eps 1e-320, Omega/eps is not finite.
        d = Domain(N1=16, N2=16)
        for eps in (1e-155, 1e-300):
            k = Stepper(d, SimConfig(epsilon=eps, mu=0.5), 0.01).coeffs
            assert all(np.isfinite(table).all() for table in vars(k).values())
        with pytest.raises(ValueError, match=r"^epsilon=1e-320: .* overflow at h=0\.01, "
                                             r"\|lambda h\| not finite"):
            Stepper(d, SimConfig(epsilon=1e-320, mu=0.5), 0.01)

    # (N, eps, h) of the benchmark workloads, all at mu = 0.5: the z that the runs step with.
    @pytest.mark.parametrize("n, eps, h", [(32, 0.05, 0.008), (64, 0.0125, 0.008),
                                           (64, 0.01, 0.008), (128, 0.05, 0.004)])
    def test_weights_match_extended_precision(self, n, eps, h):
        # Each weight f against 50-digit phi's, relative to the sum of the magnitudes of
        # its terms (f1 = h(phi_1 - 3 phi_2 + 4 phi_3) cancels near its zeros); Q relative.
        d = Domain(N1=n, N2=n)
        st_ = Stepper(d, SimConfig(epsilon=eps, mu=0.5), h)
        k, z = st_.coeffs, h * st_.lam[d._block]
        with mpmath.workdps(50):
            for i in np.ndindex(z.shape):
                p1, p2, p3 = (phi_extended(complex(z[i]), m) for m in (1, 2, 3))
                for got, terms in ((k.f1, (p1, -3 * p2, 4 * p3)), (k.f2, (p2, -2 * p3)),
                                   (k.f3, (4 * p3, -p2))):
                    err = abs(mpmath.mpc(complex(got[i])) - h * mpmath.fsum(terms))
                    assert err <= 1e-14 * h * sum(abs(t) for t in terms), (i, got[i])
                q = 0.5 * h * phi_extended(0.5 * complex(z[i]), 1)
                assert abs(mpmath.mpc(complex(k.Q[i])) - q) <= 1e-14 * abs(q), (i, k.Q[i])

    def test_rejects_nonpositive_step(self):
        d = Domain(N1=8, N2=8)
        lam = Stepper(d, SimConfig(epsilon=1.0, mu=1.0), 0.1).lam
        with pytest.raises(ValueError):
            build_coefficients(d, lam, 0.0)

    def test_refusals_name_the_value_they_got(self):
        with pytest.raises(ValueError, match=r"^epsilon must be positive, got -0\.1$"):
            SimConfig(epsilon=-0.1, mu=0.5)
        with pytest.raises(ValueError, match=r"^mu must be nonnegative, got -1\.0$"):
            SimConfig(epsilon=0.1, mu=-1.0)
        with pytest.raises(ValueError,
                           match=r"^epsilon=0\.1: step size must be positive, got -0\.1$"):
            Stepper(Domain(N1=16, N2=16), SimConfig(epsilon=0.1, mu=0.5), h=-0.1)


def _parity_pack(m1, m2, a):
    return {
        (m1, m2): a, (m1, -m2): -a,
        (-m1, -m2): np.conj(a), (-m1, m2): -np.conj(a),
    }


class TestLinearExactness:
    def test_single_mode_analytic_decay(self):
        # Mode (1,1) with mu = 0.1, eps = 0.01 rotates and decays by
        # exp((-0.2 + 50 i) h): |k|^2 = 2 and Omega = -1/2.
        d = Domain(N1=16, N2=16)
        sim = SimConfig(epsilon=0.01, mu=0.1)
        st_ = LinearStepper(d, sim, h=0.05)
        w = SpectralField.from_modes(d, _parity_pack(1, 1, 0.8 + 0.1j))
        w1 = on_fields(st_.step, w, 0.0)
        factor = np.exp((-0.2 + 50.0j) * 0.05)
        assert w1.get_mode(1, 1) == pytest.approx(w.get_mode(1, 1) * factor, rel=1e-15)

    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
    def test_exact_for_any_stiffness(self, eps, rng):
        d = Domain(N1=16, N2=16)
        sim = SimConfig(epsilon=eps, mu=0.7)
        st_ = LinearStepper(d, sim, h=0.02)
        w = random_field(d, rng, norm_target=1.0)
        w1 = on_fields(st_.step, w, 0.0)
        # note: exp(.)*coeffs, matching the production operand order;
        # complex a*b and b*a differ by an ulp when the FPU fuses multiplies
        expected = np.exp(st_.lam * 0.02) * w.coeffs
        assert np.max(np.abs(w1.coeffs - expected)) == 0.0

    def test_zonal_steady_balance(self):
        # With B off, the forced zonal mode relaxes onto f / (mu |k|^2).
        d = Domain(N1=16, N2=16)
        mu = 0.5
        forcing = Forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)
        sim = SimConfig(epsilon=0.1, mu=mu)
        st_ = LinearStepper(d, sim, h=0.05)
        fixed = SpectralField(d, forcing(0.0).coeffs / mu)  # |k|^2 = 1 there
        w = fixed.copy()
        for i in range(20):
            w = on_fields(st_.step, w, i * 0.05, forcing)
        assert norm(w - fixed) < 1e-13 * norm(fixed)


class TestNonlinearStep:
    def test_inviscid_invariants_drift(self, rng):
        d = Domain(N1=16, N2=16)
        sim = SimConfig(epsilon=1.0, mu=0.0)
        st_ = Stepper(d, sim, h=1e-3)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        ens0 = norm(w) ** 2
        energy0 = sobolev_norm(w, -1) ** 2
        for i in range(100):
            w = on_fields(st_.step, w, i * 1e-3)
        assert abs(norm(w) ** 2 - ens0) < 1e-10 * ens0
        assert abs(sobolev_norm(w, -1) ** 2 - energy0) < 1e-10 * energy0

    def test_parity_and_mean_preserved(self, rng):
        d = Domain(N1=16, N2=16)
        forcing = Forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d)
        st_ = Stepper(d, SimConfig(epsilon=0.1, mu=0.5), h=0.01)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        for i in range(50):
            w = on_fields(st_.step, w, i * 0.01, forcing)
        assert w.coeffs[0, 0] == 0.0
        assert parity_error(w) < 1e-13
        assert reality_error(w) == 0.0  # the advection term is Hermitian by construction
        assert np.all(w.coeffs[~d.dealias] == 0.0)

    def test_order_four_convergence(self, rng):
        d = Domain(N1=16, N2=16)
        eps, mu = 0.5, 0.3
        chi1 = random_field(d, rng, kmax=3.0, norm_target=3.0)
        chi2 = random_field(d, rng, kmax=3.0, norm_target=3.0)

        def exact(t):
            return np.sin(2.0 * t + 0.4) * chi1 + np.cos(1.1 * t) * chi2

        def exact_dt(t):
            return 2.0 * np.cos(2.0 * t + 0.4) * chi1 - 1.1 * np.sin(1.1 * t) * chi2

        @field_forcing
        def forcing(t):
            w = exact(t)
            return exact_dt(t) + jacobian(w, w) + apply_L(w) * (1 / eps) + apply_A(w) * mu

        sim = SimConfig(epsilon=eps, mu=mu)
        T = 0.4
        errs = []
        for h in (1e-2, 5e-3):
            st_ = Stepper(d, sim, h)
            w = exact(0.0)
            for i in range(int(round(T / h))):
                w = on_fields(st_.step, w, i * h, forcing)
            errs.append(norm(w - exact(T)))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order >= 3.7


class TestBlowUp:
    def test_huge_state_aborts_with_diagnostics(self):
        d = Domain(N1=8, N2=8)
        st_ = Stepper(d, SimConfig(epsilon=1.0, mu=0.0), h=0.1)
        w = SpectralField.from_modes(d, _parity_pack(1, 1, 1e13))
        with pytest.raises(BlowUpError) as info:
            on_fields(st_.step, w, 3.0)
        assert info.value.t == pytest.approx(3.1)
        assert info.value.magnitude > 1e12
        assert info.value.mode in {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_nan_detected(self):
        d = Domain(N1=8, N2=8)
        st_ = Stepper(d, SimConfig(epsilon=1.0, mu=0.1), h=0.1)
        w = SpectralField.zeros(d)
        w.coeffs[1, 1] = np.nan
        # NaN is never exactly odd, so a NaN state is refused as input ...
        with pytest.raises(ValueError, match="not exactly odd"):
            on_fields(st_.step, w, 0.0)
        # ... and a NaN that a step produces is a blow-up: the advection of two modes
        # of 1e300 overflows, and the transform of the infinite grid is NaN.
        huge = SpectralField.from_modes(d, {**_parity_pack(1, 1, 1e300j),
                                            **_parity_pack(2, 1, 1e300j)})
        with np.errstate(all="ignore"), pytest.raises(BlowUpError) as info:
            on_fields(st_.step, huge, 0.0)
        assert info.value.magnitude == float("inf")


class TestTangent:
    def test_zero_is_fixed_point(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        _, stages = on_fields(st_.step_with_stages, w, 0.0, _grids=True)
        phi = on_fields(st_.tangent_step, SpectralField.zeros(d), stages)
        assert norm(phi) == 0.0

    def test_zero_base_reduces_to_linear_flow(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        _, stages = on_fields(st_.step_with_stages, SpectralField.zeros(d), 0.0, _grids=True)
        phi0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        phi1 = on_fields(st_.tangent_step, phi0, stages)
        expected = np.exp(st_.lam * 0.01) * phi0.coeffs
        assert np.max(np.abs(phi1.coeffs - expected)) == 0.0

    def test_linearity(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        _, stages = on_fields(st_.step_with_stages, w, 0.0, _grids=True)
        p1 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        p2 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        alpha = 1.7
        combined = on_fields(st_.tangent_step, alpha * p1 + p2, stages)
        separate = (alpha * on_fields(st_.tangent_step, p1, stages)
                    + on_fields(st_.tangent_step, p2, stages))
        assert norm(combined - separate) < 1e-13 * norm(combined)

    def test_finite_difference_consistency(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        phi0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        n = 20

        def advance(w):
            for i in range(n):
                w = on_fields(st_.step, w, i * 0.01)
            return w

        w, phi = w0.copy(), phi0.copy()
        for i in range(n):
            w, phi = on_fields(st_.step_pair, w, phi, i * 0.01)
        base = advance(w0.copy())
        residuals = []
        for delta in (1e-3, 1e-4, 1e-5):
            pert = advance(w0 + delta * phi0)
            residuals.append(norm(pert - base - delta * phi))
        orders = [
            math.log(residuals[i] / residuals[i + 1]) / math.log(10.0)
            for i in range(2)
        ]
        assert min(orders) >= 1.9


class TestBudgetResidual:
    def test_zonal_steady_state_balances(self):
        d = Domain(N1=16, N2=16)
        mu = 0.5
        forcing = Forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)
        sim = SimConfig(epsilon=0.1, mu=mu)
        st_ = LinearStepper(d, sim, h=0.05)
        w = SpectralField(d, forcing(0.0).coeffs / mu)
        w1 = on_fields(st_.step, w, 0.0, forcing)
        assert on_fields(budget_residual, w, w1, 0.0, 0.05, forcing, sim) < 1e-12

    def test_unforced_inviscid_conservation(self, rng):
        d = Domain(N1=16, N2=16)
        sim = SimConfig(epsilon=1.0, mu=0.0)
        st_ = Stepper(d, sim, h=1e-3)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        w1 = on_fields(st_.step, w, 0.0)
        assert on_fields(budget_residual, w, w1, 0.0, 1e-3, None, sim) < 1e-8

    def test_second_order_in_h(self, rng):
        d = Domain(N1=16, N2=16)
        forcing = Forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d)
        sim = SimConfig(epsilon=0.2, mu=0.5)
        w0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        vals = []
        for h in (4e-3, 2e-3):
            st_ = Stepper(d, sim, h)
            # evolve a little first so the state is generic
            w = w0.copy()
            for i in range(10):
                w = on_fields(st_.step, w, i * h, forcing)
            w1 = on_fields(st_.step, w, 10 * h, forcing)
            vals.append(on_fields(budget_residual, w, w1, 10 * h, h, forcing, sim))
        ratio = vals[0] / vals[1]
        assert 2.5 < ratio < 6.0

    @pytest.mark.parametrize("d", [
        Domain(N1=16, N2=16), Domain(L1=4 * np.pi, N1=24, N2=16), Domain(N1=16, N2=32),
        Domain(N1=6, N2=10),
    ], ids=["16x16", "24x16-L1=4pi", "16x32", "6x10"])
    @pytest.mark.parametrize("forced", [True, False], ids=["forced", "unforced"])
    def test_matches_midpoint_formula(self, d, forced, rng):
        spec = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))
        forcing = Forcing(spec, d) if forced else None
        sim = SimConfig(epsilon=0.2, mu=0.5)
        h = 4e-3
        w = random_field(d, rng, norm_target=1.0)
        w1 = on_fields(Stepper(d, sim, h).step, w, 0.3, forcing)
        mid = 0.5 * (w + w1)
        terms = (
            (norm(w1) ** 2 - norm(w) ** 2) / (2.0 * h),
            sim.mu * sobolev_norm(mid, 1.0) ** 2,
            inner(forcing(0.3 + h / 2), mid) if forced else 0.0,
        )
        want = abs(terms[0] + terms[1] - terms[2])
        got = on_fields(budget_residual, w, w1, 0.3, h, forcing, sim)
        assert type(got) is float
        assert abs(got - want) <= 1e-13 * sum(abs(x) for x in terms)


def full_width_tables(st_: Stepper) -> SimpleNamespace:
    """The ETDRK4 weights on the full (N2, N1) symbol."""
    h, z = st_.h, st_.h * st_.lam
    p1, p2, p3 = (_phi(z, m) for m in (1, 2, 3))
    return SimpleNamespace(
        E=np.exp(z), E2=np.exp(0.5 * z), Q=0.5 * h * _phi(0.5 * z, 1),
        f1=h * (p1 - 3.0 * p2 + 4.0 * p3), f2=h * (p2 - 2.0 * p3), f3=h * (4.0 * p3 - p2),
    )


def full_width_etdrk4(k, u0, rhs):
    """ETDRK4 with every per-mode pass on both halves; returns the update and the stages."""
    n1 = rhs(0, u0)
    a = k.Q * n1 + k.E2 * u0
    n2 = rhs(1, a)
    b = k.Q * n2 + k.E2 * u0
    n3 = rhs(2, b)
    c = k.Q * (2.0 * n3 - n1) + k.E2 * a
    n4 = rhs(3, c)
    return k.E * u0 + k.f1 * n1 + 2.0 * k.f2 * (n2 + n3) + k.f3 * n4, (u0, a, b, c)


def full_width_step_pair(st_, k, w, phi, t, forcing):
    """Reference step and tangent step on full-width arrays and full-width advection."""
    d, h = st_.domain, st_.h
    times = (t, t + h / 2, t + h / 2, t + h)
    w_next, base = full_width_etdrk4(
        k, w.coeffs, lambda i, x: forcing(times[i]).coeffs - _advect_raw(d, x, x)
    )
    phi_next, _ = full_width_etdrk4(
        k, phi.coeffs, lambda i, p: -(_advect_raw(d, base[i], p) + _advect_raw(d, p, base[i]))
    )
    return SpectralField(d, w_next), SpectralField(d, phi_next)


class TestHalfWidthStep:
    """The quarter step against full-width arithmetic; one unfold, at its output.

    A state or perturbation that is not exactly odd is refused.
    """

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
    def test_matches_full_width_reference(self, d, odd, rng):
        forcing = Forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        k = full_width_tables(st_)
        w = random_field(d, rng, norm_target=2.0, odd_in_y=odd)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
        if not odd:
            odd_w = random_field(d, rng, norm_target=2.0)
            for state, perturbation in ((w, phi), (odd_w, phi), (w, odd_w)):
                with pytest.raises(ValueError, match="not exactly odd"):
                    on_fields(st_.step_pair, state, perturbation, 0.0, forcing)
            return
        w_ref, phi_ref = w, phi
        for i in range(20):
            w, phi = on_fields(st_.step_pair, w, phi, i * 0.01, forcing)
            w_ref, phi_ref = full_width_step_pair(st_, k, w_ref, phi_ref, i * 0.01, forcing)
        for got, want in ((w, w_ref), (phi, phi_ref)):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))

    def test_outputs_are_exactly_real_and_stages_half_width(self, rng):
        # The states and the weights are band blocks, the stages keep the base grids of
        # each stage, and input that is not odd is refused.
        d = Domain(L1=4 * np.pi, N1=24, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = Forcing(self.SPEC, d)
        w = OddBand.of(random_field(d, rng, norm_target=2.0))
        phi = OddBand.of(random_field(d, rng, norm_target=1.0))
        w1, stages = st_.step_with_stages(w, 0.0, forcing, _grids=True)
        phi1 = st_.tangent_step(phi, stages)
        assert reality_error(w1.field) == 0.0 and reality_error(phi1.field) == 0.0
        for x in (w, phi, w1, phi1):
            assert x.coeffs.shape == (5, 8)
        assert st_.coeffs.E.shape == (5, 8) and stages.grids.shape == (4, 2, 16, 24)
        not_odd = random_field(d, rng, norm_target=2.0, odd_in_y=False)
        with pytest.raises(ValueError, match="not exactly odd"):
            OddBand.of(not_odd)
        with pytest.raises(TypeError, match="^tangent must be an OddBand"):
            st_.tangent_step(not_odd, stages)

    def test_one_unfold_per_step_and_per_tangent_step(self, monkeypatch, rng):
        import zns.lattice
        from zns.lattice import _unfold

        calls = []

        def counting_unfold(d, half):
            calls.append(half.shape)
            return _unfold(d, half)

        monkeypatch.setattr(zns.lattice, "_unfold", counting_unfold)
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        _, stages = on_fields(st_.step_with_stages, w, 0.0, Forcing(self.SPEC, d), _grids=True)
        assert calls == [(16, 9)]
        on_fields(st_.tangent_step, random_field(d, rng, norm_target=1.0), stages)
        assert calls == [(16, 9), (16, 9)]


class TestQuarterStep:
    """Exactly odd input steps on the m2 > 0 quarter and stays exactly odd."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_matches_general_path(self, d):
        # A trajectory taken through full fields, ``OddBand.of`` in and ``.field`` out at
        # every step, matches one kept as states bit for bit: the expansion of a step's
        # output is exactly odd and real, and taking it back loses nothing.
        forcing = Forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        rng = np.random.default_rng(11)
        w0 = random_field(d, rng, norm_target=2.0)
        phi0 = random_field(d, rng, norm_target=1.0)

        def run(step_pair, w, phi):
            for i in range(20):
                w, phi = step_pair(w, phi, i * 0.01, forcing)
            return w, phi

        assert OddBand.of(w0).coeffs.shape == (-(-d.N2 // 3) - 1, -(-d.N1 // 3))
        fields = run(lambda *args: on_fields(st_.step_pair, *args), w0, phi0)
        quarters = run(st_.step_pair, OddBand.of(w0), OddBand.of(phi0))
        for got, want in zip(fields, quarters):
            assert isinstance(want, OddBand)
            assert parity_error(got) == 0.0
            assert reality_error(got) == 0.0
            assert np.array_equal(got.coeffs, want.field.coeffs)

    def test_integrate_keeps_every_state_exactly_odd(self):
        from zns.harness import initial_state, integrate

        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.1, mu=0.5), h=0.01)
        rng = np.random.default_rng(12)
        errors = []

        def observe(t, w, tangent, partner, recorded):
            errors.extend(parity_error(f.field) for f in (w, tangent, partner))

        integrate(st_, Forcing(self.SPEC, d), initial_state(d, 1, 0.5), 0.0, 3.0,
                  record_every=50, tangent=random_field(d, rng, norm_target=1.0),
                  partner=initial_state(d, 2, 0.5), observe=observe)
        assert len(errors) == 3 * 300
        assert max(errors) == 0.0

    def test_one_ulp_off_odd_and_not_odd_take_the_general_path(self, rng):
        # Neither becomes a state.
        d = Domain(N1=16, N2=16)
        w = random_field(d, rng, norm_target=2.0)
        ulp = w.copy()
        c = ulp.coeffs[2, 1]
        ulp.coeffs[2, 1] = complex(np.nextafter(c.real, np.inf), c.imag)
        ulp.coeffs[-2, -1] = np.conj(ulp.coeffs[2, 1])  # still exactly real
        assert reality_error(ulp) == 0.0 and 0.0 < parity_error(ulp) < 1e-15
        for x in (ulp, random_field(d, rng, norm_target=2.0, odd_in_y=False)):
            with pytest.raises(ValueError, match="not exactly odd"):
                OddBand.of(x)

    def test_tangent_not_odd_on_quarter_stages(self, rng):
        # Refused as a tangent, as a base state that is not odd is; its odd part steps.
        d = Domain(L1=4 * np.pi, N1=24, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = Forcing(self.SPEC, d)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        _, stages = on_fields(st_.step_with_stages, w, 0.0, forcing, _grids=True)
        with pytest.raises(ValueError, match="not exactly odd"):
            OddBand.of(phi, "tangent")
        got = on_fields(st_.tangent_step, project_parity(phi), stages)
        assert parity_error(got) == 0.0 and reality_error(got) == 0.0

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    @pytest.mark.parametrize("eps,mu", [(0.2, 0.5), (1e-4, 0.03), (3.0, 0.0)])
    def test_weights_are_exactly_even_in_m2(self, d, eps, mu):
        # The band tables are, bit for bit, both the m2 > 0 rows and the
        # mirrored m2 < 0 rows of the tables on the full symbol.
        st_ = Stepper(d, SimConfig(epsilon=eps, mu=mu), h=0.01)
        k, full = st_.coeffs, full_width_tables(st_)
        r, n1 = -(-d.N2 // 3) - 1, -(-d.N1 // 3)
        for name in ("E", "E2", "Q", "f1", "f2", "f3"):
            table = getattr(full, name)
            assert np.array_equal(getattr(k, name), table[1 : r + 1, :n1])
            assert np.array_equal(getattr(k, name), table[: d.N2 - r - 1 : -1, :n1])

    def test_blowup_reports_the_true_mode(self):
        d = Domain(N1=16, N2=16)
        st_ = LinearStepper(d, SimConfig(epsilon=1.0, mu=0.0), h=0.1)
        w = SpectralField.from_modes(d, _parity_pack(2, 3, 1e13j))
        with pytest.raises(BlowUpError) as info:
            on_fields(st_.step, w, 0.0)
        assert info.value.mode == (2, 3)


def count_transforms(monkeypatch) -> dict:
    """Count the 1-D transform passes the solver makes, by patching the pocketfft gufuncs
    that ``zns.lattice`` calls (its ``_pocketfft`` namespace).

    A 2-D transform is two passes: ``ifft`` over y then ``irfft`` over x for the
    inverse, ``rfft`` over x then ``fft`` over y for the forward.
    """
    counts = {"ifft": 0, "irfft": 0, "rfft": 0, "fft": 0}
    passes = {}
    for name, gufunc in (("ifft", "ifft"), ("irfft", "irfft"), ("rfft", "rfft_n_even"),
                         ("fft", "fft")):
        fn = getattr(zns.lattice._pocketfft, gufunc)

        def counted(*args, fn=fn, name=name, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        passes[gufunc] = counted
    monkeypatch.setattr(zns.lattice, "_pocketfft", SimpleNamespace(**passes))
    return counts


class TestCachedTangentStage:
    """A quarter tangent stage is the odd part of one grid sum over cached base grids."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("n", [32, 64])
    def test_matches_two_advection_calls(self, n, rng):
        d = Domain(N1=n, N2=n)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        for _ in range(3):
            W = OddBand.of(random_field(d, rng, norm_target=2.0)).coeffs
            P = OddBand.of(random_field(d, rng, norm_target=1.0)).coeffs
            want = -(_advect_raw(d, W, P, st_._kernel) + _advect_raw(d, P, W, st_._kernel))
            got = st_._tangent_nonlinear(P, st_._kernel.grids(W, W, np.empty((2, n, n))))
            assert got.shape == W.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_tangent_step_without_grids_matches_step_pair(self, d, rng):
        # A step that keeps no grids takes the same base step as step_pair, and a
        # tangent step on its stages is refused.
        forcing = Forcing(self.SPEC, d)
        w = OddBand.of(random_field(d, rng, norm_target=2.0))
        phi = OddBand.of(random_field(d, rng, norm_target=1.0))
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w1, _ = st_.step_pair(w, phi, 0.3, forcing)
        w2, stages = st_.step_with_stages(w, 0.3, forcing)
        assert stages.grids is None
        assert np.array_equal(w1.coeffs, w2.coeffs)
        with pytest.raises(ValueError, match="kept no grids"):
            st_.tangent_step(phi, stages)

    def test_linear_flow_builds_no_grids(self, rng, monkeypatch):
        def no_grids(kernel, A, B, out):
            raise AssertionError("the linear flow built a grid")

        monkeypatch.setattr(_BandKernel, "grids", no_grids)
        d = Domain(N1=16, N2=16)
        st_ = LinearStepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0)
        _, stages = on_fields(st_.step_with_stages, w, 0.0, _grids=True)
        expected = np.exp(st_.lam * 0.01) * phi.coeffs
        for got in (on_fields(st_.tangent_step, phi, stages),
                    on_fields(st_.step_pair, w, phi, 0.0)[1]):
            assert np.max(np.abs(got.coeffs - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_transform_counts(self, monkeypatch, rng):
        d = Domain(N1=16, N2=16)
        forcing = Forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0)
        counts = count_transforms(monkeypatch)

        def take():
            out = (counts["ifft"], counts["irfft"], counts["rfft"], counts["fft"])
            counts.update(ifft=0, irfft=0, rfft=0, fft=0)
            return out

        # Odd state: per base stage, one stacked inverse transform of two grids
        # (an ifft and an irfft pass) and one forward (an rfft and an fft pass);
        # the tangent reuses the base grids.
        _, stages = on_fields(st_.step_with_stages, w, 0.0, forcing, _grids=True)
        assert len(stages.grids) == 4 and take() == (4, 4, 4, 4)
        on_fields(st_.tangent_step, phi, stages)
        assert take() == (4, 4, 4, 4)
        on_fields(st_.step_pair, w, phi, 0.0, forcing)
        assert take() == (8, 8, 8, 8)
        # A plain step keeps no grids, and a tangent on its stages is refused.
        _, stages = on_fields(st_.step_with_stages, w, 0.0, forcing)
        assert stages.grids is None and take() == (4, 4, 4, 4)
        with pytest.raises(ValueError, match="kept no grids"):
            on_fields(st_.tangent_step, phi, stages)
        # A field, not a state: refused before any transform.
        for args in ((w, OddBand.of(phi)), (OddBand.of(w), phi)):
            with pytest.raises(TypeError, match="must be an OddBand"):
                st_.step_pair(*args, 0.0, forcing)
        assert take() == (0, 0, 0, 0)

    def test_step_pair_steps_and_tangents_through_the_instance(self, monkeypatch, rng):
        # Tracing wraps these two methods on the class; step_pair must call both.
        calls = []
        for name in ("step_with_stages", "tangent_step"):
            fn = getattr(Stepper, name)
            monkeypatch.setattr(Stepper, name, lambda self, *a, fn=fn, name=name, **k:
                                calls.append(name) or fn(self, *a, **k))
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        on_fields(st_.step_pair, w, random_field(d, rng, norm_target=1.0), 0.0)
        on_fields(st_.step, w, 0.0)
        assert calls == ["step_with_stages", "tangent_step", "step_with_stages"]


class TestWorkBuffers:
    """Reused buffers leave no trace: every entry point gives the same bits."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("n", [32, 64])
    def test_integrate_matches_public_steps(self, n):
        from zns.harness import initial_state, integrate

        d = Domain(N1=n, N2=n)
        forcing = Forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.05, mu=0.5), h=0.008)
        w0, phi0, partner0 = (initial_state(d, seed, 1.0) for seed in (1, 2, 3))
        last = []
        w, _ = integrate(st_, forcing, w0, 0.0, 40 * 0.008, record_every=3,
                         tangent=phi0, partner=partner0,
                         observe=lambda t, *states: last.append(states[:3]))
        got = (w, last[-1][1].field, last[-1][2].field)
        w, phi, partner = w0, phi0, partner0
        for i in range(40):
            w, phi = on_fields(st_.step_pair, w, phi, i * 0.008, forcing)
            partner = on_fields(st_.step, partner, i * 0.008, forcing)
        for a, b in zip(got, (w, phi, partner)):
            assert np.array_equal(a.coeffs, b.coeffs)

    def test_integrate_matches_2d_wrapper_reference(self, monkeypatch):
        # The same run with the raw pair on numpy's 2-D wrappers, one call per grid: in the
        # band kernel's two methods and in the record's _irfft2.
        import zns.operators
        from zns.harness import initial_state, integrate

        calls = []

        def irfft2(d, H):  # H may hold only the leading columns of the half
            calls.append("irfft2")
            out = np.empty(H.shape[:-2] + (d.N2, d.N1))
            for i in np.ndindex(H.shape[:-2]):
                np.fft.irfftn(H[i], s=(d.N2, d.N1), axes=(0, 1), norm="forward", out=out[i])
            return out

        def grids(kernel, A, B, out):
            C = A if B is A else np.stack((A, B))
            for table, rows in zip((kernel.up, kernel.down), kernel.rows):
                np.multiply(table, C, out=rows)
            out[...] = irfft2(d, kernel.spectrum)
            return out

        def odd_part(kernel, grid, minus=False):
            calls.append("rfft2")
            F = np.fft.rfft2(grid, norm="forward")[:, : kernel.coeffs.shape[1]]
            up, down = (F[rows] for rows in d._band_rows)
            Q = np.subtract(down, up) if minus else np.subtract(up, down)
            Q *= kernel.mask
            Q.real[:, 0] = 0.0
            return Q

        d = Domain(N1=32, N2=32)
        forcing = Forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.05, mu=0.5), h=0.008)
        w0, phi0, partner0 = (initial_state(d, seed, 1.0) for seed in (1, 2, 3))

        def run():
            last = []
            w, records = integrate(st_, forcing, w0, 0.0, 40 * 0.008, record_every=3,
                                   tangent=phi0, partner=partner0,
                                   observe=lambda t, *states: last.append(states[:3]))
            return [w.coeffs, last[-1][1].field.coeffs, last[-1][2].field.coeffs,
                    np.array([dataclasses.astuple(r) for r in records])]

        got = run()
        monkeypatch.setattr(zns.operators, "_irfft2", irfft2)
        monkeypatch.setattr(_BandKernel, "grids", grids)
        monkeypatch.setattr(_BandKernel, "odd_part", odd_part)
        want = run()
        # 12 per iteration (base, tangent and partner: 4 stages each), 1 per record.
        assert calls.count("rfft2") == 40 * 12 and calls.count("irfft2") == 40 * 12 + len(want[3])
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_alternating_trajectories_match_each_alone(self, d):
        forcing = Forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        rng = np.random.default_rng(13)
        starts = [(random_field(d, rng, norm_target=2.0), random_field(d, rng, norm_target=1.0))
                  for _ in range(2)]

        def advance(states, i):
            w, phi, plain = states
            w, phi = on_fields(st_.step_pair, w, phi, i * 0.01, forcing)
            return w, phi, on_fields(st_.step, plain, i * 0.01, forcing)

        alone = []
        for w, phi in starts:
            states = (w, phi, phi)
            for i in range(10):
                states = advance(states, i)
            alone.append(states)
        together = [(w, phi, phi) for w, phi in starts]
        for i in range(10):
            together = [advance(states, i) for states in together]
        for a, b in zip(alone, together):
            for x, y in zip(a, b):
                assert np.array_equal(x.coeffs, y.coeffs)

    def test_steppers_on_one_domain_step_at_once_in_two_threads(self):
        # Each stepper writes only its own kernel's buffers, so two stepping at once in two
        # threads, a plain step and a step pair, give the sequential run's bits.
        import sys
        import threading

        d = Domain(N1=32, N2=32)
        forcing = Forcing(self.SPEC, d)
        rng = np.random.default_rng(17)
        starts = [OddBand.of(random_field(d, rng, norm_target=2.0)) for _ in range(3)]

        def run(member, out):
            st_ = Stepper(d, SimConfig(epsilon=0.05, mu=0.5), h=0.004)
            w, phi = starts[member], starts[2]
            for i in range(150):
                if member == 0:
                    w = st_.step(w, i * 0.004, forcing)
                else:
                    w, phi = st_.step_pair(w, phi, i * 0.004, forcing)
            out[member] = np.stack((w.coeffs, phi.coeffs))

        want, got = [None, None], [None, None]
        for member in range(2):
            run(member, want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(m, got)) for m in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

        def buffers(kernel):
            items = [x for v in vars(kernel).values() for x in (v if isinstance(v, tuple) else (v,))]
            return [x for x in items if isinstance(x, np.ndarray) and x.flags.writeable]

        # What the two kernels write is their own; what they share is read-only.
        a, b = (buffers(Stepper(d, SimConfig(0.05, 0.5), 0.004)._kernel) for _ in range(2))
        assert a and not any(np.shares_memory(x, y) for x in a for y in b)

    def test_a_domain_holds_no_writable_state(self, rng):
        # After a step, a step pair and a record, everything a domain has cached is a
        # read-only array, or a tuple of them or of slices.
        from zns.diagnostics import record_state

        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = OddBand.of(random_field(d, rng, norm_target=1.0))
        w, _ = st_.step_pair(st_.step(w, 0.0), w, 0.01)
        record_state(w.field, 0.02)
        fields = {f.name for f in dataclasses.fields(d)}
        cached = {name: v for name, v in vars(d).items() if name not in fields}
        assert {"ksq", "_yphase", "_odd_advect_tables", "_half_weight"} <= set(cached)
        for name, value in cached.items():
            for item in value if isinstance(value, tuple) else (value,):
                assert isinstance(item, (np.ndarray, slice)), name
                assert isinstance(item, slice) or not item.flags.writeable, name

    def test_integrate_refuses_states_that_are_not_odd(self, rng):
        from zns.harness import integrate

        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        odd = random_field(d, rng, norm_target=1.0)
        not_odd = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        for kwargs in ({"w0": not_odd}, {"w0": odd, "tangent": not_odd},
                       {"w0": odd, "partner": not_odd}):
            with pytest.raises(ValueError, match="not exactly odd"):
                integrate(st_, None, t0=0.0, t_end=0.1, **kwargs)

    @pytest.mark.parametrize("what", ["tangent", "partner"])
    def test_integrate_names_what_is_not_odd(self, what, rng):
        from zns.harness import integrate

        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        odd = random_field(d, rng, norm_target=1.0)
        not_odd = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        with pytest.raises(ValueError, match=f"^{what} is not exactly odd in y"):
            integrate(st_, None, odd, 0.0, 0.1, **{what: not_odd})


class TestSteadyForcingView:
    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5), (2, 3, 0.2 - 0.1j)))

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
    def test_step_unchanged_and_base_never_written(self, odd, rng):
        d = Domain(N1=16, N2=16)
        forcing = Forcing(self.SPEC, d)
        base = forcing(0.0).coeffs
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0, odd_in_y=odd)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
        if odd:
            # The read-only block steps as a private copy of the forcing's field does.
            by_view = on_fields(st_.step_pair, w, phi, 0.3, forcing)
            by_copy = on_fields(st_.step_pair, w, phi, 0.3, field_forcing(forcing))
            for got, want in zip(by_view, by_copy):
                assert np.array_equal(got.coeffs, want.coeffs)
            budgets = [on_fields(budget_residual, w, by_view[0], 0.3, 0.01, f, st_.config)
                       for f in (forcing, field_forcing(forcing))]
            assert budgets[0] == budgets[1]
        else:
            with pytest.raises(ValueError, match="not exactly odd"):
                on_fields(st_.step_pair, w, phi, 0.3, forcing)
            with pytest.raises(ValueError, match="not exactly odd"):
                on_fields(budget_residual, w, w, 0.3, 0.01, forcing, st_.config)
        assert not forcing.coeffs_at(0.0).flags.writeable
        assert np.array_equal(forcing.coeffs_at(0.7), base[1:6, :6])
        # The call still hands out a private, writable copy.
        f = forcing(1.0)
        f.coeffs[1, 1] = 5.0
        assert np.array_equal(forcing(1.0).coeffs, base)


@pytest.mark.parametrize("sigma", [0.0, 1.3], ids=["steady", "time-periodic"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
def test_forcing_evaluated_once_per_distinct_time(sigma, odd, rng, monkeypatch):
    d = Domain(N1=16, N2=16)
    forcing = Forcing(ForcingSpec(TestSteadyForcingView.SPEC.modes, sigma), d)
    st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
    w = random_field(d, rng, norm_target=2.0, odd_in_y=odd)
    phi = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
    want = on_fields(st_.step_pair, w, phi, 0.3, forcing) if odd else None
    times = []
    coeffs_at = Forcing.coeffs_at
    monkeypatch.setattr(Forcing, "coeffs_at", lambda self, t: times.append(t) or coeffs_at(self, t))
    if not odd:  # refused before the forcing is evaluated
        with pytest.raises(ValueError, match="not exactly odd"):
            on_fields(st_.step_pair, w, phi, 0.3, forcing)
        assert times == []
        return
    got = on_fields(st_.step_pair, w, phi, 0.3, forcing)
    assert times == [0.3, 0.3 + 0.01 / 2, 0.3 + 0.01]
    for a, b in zip(got, want):
        assert np.array_equal(a.coeffs, b.coeffs)


def _half_power(d: Domain, C: np.ndarray) -> np.ndarray:
    """``|c|^2`` on the m1 >= 0 columns of Hermitian ``C``, the m1 > 0 columns
    doubled, so that sums over it equal sums of ``|C|^2`` over the full array."""
    half = C[:, : d.N1 // 2 + 1]
    return (np.square(half.real) + np.square(half.imag)) * d._half_weight


def budget_residual_three_pass(w, w_next, t, h, forcing, config):
    """The enstrophy-budget defect as three ``_half_power`` sums and an inner product."""
    d = w.domain
    mid = 0.5 * (w + w_next)
    d_ens = d.area * (_half_power(d, w_next.coeffs) - _half_power(d, w.coeffs)).sum() / (2.0 * h)
    grad_sq = d.area * (d.ksq[:, : d.N1 // 2 + 1] * _half_power(d, mid.coeffs)).sum()
    injection = inner(forcing(t + h / 2), mid) if forcing is not None else 0.0
    terms = (d_ens, config.mu * grad_sq, injection)
    return abs(d_ens + config.mu * grad_sq - injection), sum(abs(x) for x in terms)


@pytest.mark.parametrize("d", KERNEL_DOMAINS)
@pytest.mark.parametrize("forced", [True, False], ids=["forced", "unforced"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
def test_budget_residual_matches_three_pass_formula(d, forced, odd, rng):
    forcing = Forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d) if forced else None
    sim = SimConfig(epsilon=0.2, mu=0.5)
    st_ = Stepper(d, sim, 4e-3)
    w = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
    if not odd:  # the budget is summed over the quarter of odd states only
        with pytest.raises(ValueError, match="not exactly odd"):
            on_fields(budget_residual, w, w, 0.3, 4e-3, forcing, sim)
        return
    w1 = on_fields(st_.step, w, 0.3, forcing)
    want, scale = budget_residual_three_pass(w, w1, 0.3, 4e-3, forcing, sim)
    got = on_fields(budget_residual, w, w1, 0.3, 4e-3, forcing, sim)
    assert abs(got - want) <= 1e-13 * scale


def _odd_pair(d: Domain, m1: int, m2: int, c: complex) -> SpectralField:
    """The real, exactly odd field of coefficient ``c`` (imaginary if m1 = 0) at (m1, m2)."""
    f = SpectralField.zeros(d)
    for (a1, a2), v in _parity_pack(m1, m2, c).items():
        f.coeffs[a2 % d.N2, a1 % d.N1] = v
    return f


def _band_edges(d: Domain) -> dict[str, tuple[int, int]]:
    """The first modes outside the band: column m1 = K and row m2 = R + 1."""
    r, k = d._band_shape
    return {"m1=K": (k, 1), "m2=R+1": (1, r + 1)}


class TestBand:
    """A trajectory holds no mode outside the 2/3 band, so a step runs on its band block."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_band_is_the_dealiased_part_of_the_quarter(self, d):
        n1 = d.N1 // 2 + 1
        inside = np.zeros((d.N2, n1), dtype=bool)
        inside[d._block] = True
        assert np.array_equal(inside, d.dealias[:, :n1] & (d.m2 > 0)[:, None])
        assert inside.any() and not inside.all()

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_trajectory_inputs_are_zero_outside_the_band(self, d):
        from zns.harness import initial_state

        r, k = d._band_shape
        # Every canonical mode of the band, zonal ones with real amplitudes.
        modes = tuple((m1, m2, 0.3 if m1 == 0 else 0.2 - 0.1j)
                      for m2 in range(1, r + 1) for m1 in range(k))
        rng = np.random.default_rng(31)
        fields = [initial_state(d, seed, 1.0) for seed in range(3)]
        fields += [random_field(d, rng, kmax=kmax, slope=slope, norm_target=1.0)
                   for kmax in (None, 2.0, 1e3) for slope in (0.0, -1.0)]
        for sigma in (0.0, 0.7):
            forcing = Forcing(ForcingSpec(modes, sigma), d)
            fields += [forcing(t) for t in (0.0, 0.37)]
            assert np.array_equal(forcing.coeffs_at(0.37), OddBand.of(forcing(0.37)).coeffs)
        for f in fields:
            assert np.all(f.coeffs[~d.dealias] == 0.0)
            block = OddBand.of(f).coeffs
            assert np.array_equal(OddBand(d, block).field.coeffs, f.coeffs)
        for m1, m2 in _band_edges(d).values():
            with pytest.raises(ValueError, match="outside the dealiased band"):
                Forcing(ForcingSpec(((m1, m2, 0.5),)), d)

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    @pytest.mark.parametrize("where", ["m1=K", "m2=R+1"])
    @pytest.mark.parametrize("entry", [
        "step", "step_pair-state", "step_pair-tangent", "tangent_step",
        "integrate-state", "integrate-tangent", "integrate-partner",
    ])
    def test_refused_before_any_step(self, d, where, entry, monkeypatch):
        # ``integrate`` makes its states through ``OddBand.of``, which names what it
        # refuses and the band; a stepper method refuses the field itself.
        from zns.harness import initial_state, integrate

        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = Forcing(self.SPEC, d)
        w = initial_state(d, 1, 1.0)
        wide = w + _odd_pair(d, *_band_edges(d)[where], 1e-3 + 2e-3j)
        assert parity_error(wide) == 0.0 and reality_error(wide) == 0.0
        state = OddBand.of(w)
        _, stages = st_.step_with_stages(state, 0.0, forcing, _grids=True)
        counts = count_transforms(monkeypatch)
        calls = {
            "step": lambda: st_.step(wide, 0.0, forcing),
            "step_pair-state": lambda: st_.step_pair(wide, state, 0.0, forcing),
            "step_pair-tangent": lambda: st_.step_pair(state, wide, 0.0, forcing),
            "tangent_step": lambda: st_.tangent_step(wide, stages),
            "integrate-state": lambda: integrate(st_, forcing, wide, 0.0, 0.1),
            "integrate-tangent": lambda: integrate(st_, forcing, w, 0.0, 0.1, tangent=wide),
            "integrate-partner": lambda: integrate(st_, forcing, w, 0.0, 0.1, partner=wide),
        }
        what = "tangent" if "tangent" in entry else "partner" if "partner" in entry else "state"
        if entry.startswith("integrate"):
            refusal = pytest.raises(ValueError, match=f"^{what} has a nonzero coefficient "
                                    r"outside the 2/3 band 0 < m2 <= \d+, \|m1\| <= \d+")
        else:
            refusal = pytest.raises(TypeError, match=f"^{what} must be an OddBand, not "
                                    "SpectralField")
        with refusal:
            calls[entry]()
        assert counts == {"ifft": 0, "irfft": 0, "rfft": 0, "fft": 0}

    def test_stepper_refuses_fields(self, rng):
        # A step, a tangent step and a budget take states only, also a field in the band.
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = Forcing(self.SPEC, d)
        f = random_field(d, rng, norm_target=1.0)
        state = OddBand.of(f)
        _, stages = st_.step_with_stages(state, 0.0, forcing, _grids=True)
        calls = [
            lambda: st_.step(f, 0.0, forcing),
            lambda: st_.step_with_stages(f, 0.0, forcing, _grids=True),
            lambda: st_.tangent_step(f, stages),
            lambda: budget_residual(f, state, 0.0, 0.01, forcing, st_.config),
            lambda: budget_residual(state, f, 0.0, 0.01, forcing, st_.config),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="must be an OddBand, not SpectralField"):
                call()

    def test_band_states_step_without_a_scan(self, monkeypatch):
        # The band was checked where each field became a state: a step, a tangent step
        # and a budget on states take no field apart, and a state is its block alone.
        from zns.harness import initial_state

        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = Forcing(self.SPEC, d)
        w, phi = (initial_state(d, seed, 1.0) for seed in (1, 2))
        want = on_fields(st_.step_pair, w, phi, 0.0, forcing)
        states = [OddBand.of(x) for x in (w, phi)]

        def no_scan(*args):
            raise AssertionError("a step on states scanned a field")

        monkeypatch.setattr(OddBand, "of", no_scan)
        got = st_.step_pair(*states, 0.0, forcing)
        for a, b in zip(got, want):
            assert isinstance(a, OddBand) and a.coeffs.shape == (5, 6) and a.coeffs.base is None
            assert np.array_equal(a.field.coeffs, b.coeffs)
        assert budget_residual(states[0], got[0], 0.0, 0.01, forcing, st_.config) > 0.0


def quarter(f: SpectralField) -> np.ndarray:
    """The m2 > 0 quarter of the full field ``f``, a view."""
    return f.coeffs[1 : f.domain.N2 // 2, : f.domain.N1 // 2 + 1]


class QuarterStage:
    """The step as it ran on the whole m2 > 0 quarter, before the band block: weights,
    stage arithmetic and both transforms' y-passes on every quarter mode (a test-only copy
    of that code, the reference of the band step)."""

    def __init__(self, st_: Stepper):
        d, n2, n1 = st_.domain, st_.domain.N2 // 2, st_.domain.N1 // 2 + 1
        self.d, self.h = d, st_.h
        z = st_.h * st_.lam[1:n2, :n1]
        p1, p2, p3 = _phi(z, 1), _phi(z, 2), _phi(z, 3)
        self.k = SimpleNamespace(
            E=np.exp(z), E2=np.exp(0.5 * z), Q=0.5 * st_.h * _phi(0.5 * z, 1),
            f1=st_.h * (p1 - 3.0 * p2 + 4.0 * p3), f2=st_.h * (p2 - 2.0 * p3),
            f3=st_.h * (4.0 * p3 - p2),
        )
        # The half-width multipliers (i k2/|k|^2, -i k1/|k|^2, i k1, i k2) times (-1)^m2.
        kx, ky, inv_ksq, phase = d.kx[:, :n1], d.ky[:, :n1], d.inv_ksq[:, :n1], d._yphase
        to_u, to_v, to_dx, to_dy = (t * phase for t in (
            1j * ky * inv_ksq, -1j * kx * inv_ksq, 1j * kx, 1j * ky))
        sign = np.where(d.m2 < 0, -1.0, 1.0)[:, None]
        self.to_uv, self.to_dxy = sign * (to_u + to_v), sign * (to_dx + to_dy)
        self.mask = 0.5 * d.dealias[1:n2, :n1] * phase[1:n2]

    def grids(self, A, B):
        d, n2 = self.d, self.d.N2 // 2
        S = np.zeros((2, d.N2, d.N1 // 2 + 1), dtype=np.complex128)
        for s, table, C in ((S[0], self.to_uv, A), (S[1], self.to_dxy, B)):
            np.multiply(table[1:n2], C, out=s[1:n2])
            np.multiply(table[:n2:-1], C, out=s[:n2:-1])
        return _irfft2(d, S)

    def odd_part(self, grid):
        d, n2, keep = self.d, self.d.N2 // 2, self.d._band_shape[1]
        F = _rfft2(d, grid)[:, :keep]
        out = np.zeros((n2 - 1, d.N1 // 2 + 1), dtype=np.complex128)
        Q = np.subtract(F[1:n2], F[:n2:-1], out=out[:, :keep])
        Q *= self.mask[:, :keep]
        Q.real[:, 0] = 0.0
        return out

    def etdrk4(self, u0, rhs):
        k = self.k
        n1 = rhs(0, u0)
        e2u0 = k.E2 * u0
        a = k.Q * n1 + e2u0
        n2 = rhs(1, a)
        b = k.Q * n2 + e2u0
        n3 = rhs(2, b)
        c = k.Q * (2.0 * n3 - n1) + k.E2 * a
        n4 = rhs(3, c)
        n2 += n3
        n2 *= 2.0
        out = k.E * u0
        for f, n in ((k.f1, n1), (k.f2, n2), (k.f3, n4)):
            n *= f
            out += n
        return out

    def step_pair(self, w, phi, t, forcing):
        """The quarters after one step of ``w`` and, unless None, of tangent ``phi``."""
        times = (t, t + self.h / 2, t + self.h / 2, t + self.h)
        f = [None if forcing is None else quarter(forcing(s)) for s in times]
        kept = []

        def base(i, C):
            uv, dxy = self.grids(C, C)
            kept.append((uv, dxy))
            out = self.odd_part(uv * dxy)
            np.negative(out, out=out)
            if f[i] is not None:
                out += f[i]
            return out

        def tangent(i, P):
            uv, dxy = kept[i]
            uv_p, dxy_p = self.grids(P, P)
            dxy_p *= uv
            uv_p *= dxy
            dxy_p += uv_p
            out = self.odd_part(dxy_p)
            return np.negative(out, out=out)

        w_next = self.etdrk4(w, base)
        return w_next, None if phi is None else self.etdrk4(phi, tangent)


@pytest.mark.parametrize("d, forced", [
    pytest.param(Domain(N1=64, N2=64), True, id="64x64"),
    pytest.param(Domain(L1=4 * np.pi, N1=24, N2=16), True, id="24x16-L1=4pi"),
    pytest.param(Domain(N1=20, N2=14), True, id="20x14"),
    pytest.param(Domain(N1=20, N2=14), False, id="20x14-unforced"),
])
def test_band_step_is_bit_identical_to_the_quarter_step(d, forced):
    from zns.harness import initial_state

    spec = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)), sigma=0.7)
    forcing = Forcing(spec, d) if forced else None
    st_ = Stepper(d, SimConfig(epsilon=0.05, mu=0.5), h=0.004)
    ref = QuarterStage(st_)
    w, phi, plain = (OddBand.of(initial_state(d, seed, 1.0)) for seed in (1, 2, 3))
    w_ref, phi_ref, plain_ref = (quarter(x.field) for x in (w, phi, plain))
    for i in range(50):
        t = i * 0.004
        plain = st_.step(plain, t, forcing)
        plain_ref, _ = ref.step_pair(plain_ref, None, t, forcing)
        w, phi = st_.step_pair(w, phi, t, forcing)
        w_ref, phi_ref = ref.step_pair(w_ref, phi_ref, t, forcing)
    for got, want in ((plain, plain_ref), (w, w_ref), (phi, phi_ref)):
        assert np.array_equal(quarter(got.field), want)
        assert np.abs(want).max() > 1e-3  # a nontrivial state


def test_calls_that_tracing_counts(monkeypatch):
    # A benchmark trace counts one ``step_with_stages`` per base or partner step, one
    # ``tangent_step`` per tangent step and four ``zns.stepper._advect_raw`` per plain step.
    import zns.stepper
    from zns.harness import initial_state, integrate

    calls = {"step_with_stages": 0, "tangent_step": 0, "_advect_raw": 0}
    for name in ("step_with_stages", "tangent_step"):
        fn = getattr(Stepper, name)
        monkeypatch.setattr(Stepper, name, lambda self, *a, fn=fn, name=name, **k:
                            calls.__setitem__(name, calls[name] + 1) or fn(self, *a, **k))
    advect = zns.stepper._advect_raw
    monkeypatch.setattr(zns.stepper, "_advect_raw", lambda *a: calls.__setitem__(
        "_advect_raw", calls["_advect_raw"] + 1) or advect(*a))
    d = Domain(N1=16, N2=16)
    forcing = Forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d)
    st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
    w0, phi0, partner0 = (initial_state(d, seed, 1.0) for seed in (1, 2, 3))

    def take():
        out = tuple(calls.values())
        calls.update(dict.fromkeys(calls, 0))
        return out

    integrate(st_, forcing, w0, 0.0, 0.07, record_every=3)
    assert take() == (7, 0, 28)
    integrate(st_, forcing, w0, 0.0, 0.07, record_every=3, tangent=phi0, partner=partner0)
    assert take() == (14, 7, 28)
    on_fields(st_.step, w0, 0.0, forcing)
    assert take() == (1, 0, 4)
