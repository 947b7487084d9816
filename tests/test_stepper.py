"""Exponential integrator: weights, exactness, order, tangent propagation."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zns.diagnostics import sobolev_norm
from zns.forcing import ForcingSpec, make_forcing
from zns.lattice import (
    Domain,
    SpectralField,
    inner,
    norm,
    parity_error,
    random_field,
    reality_error,
)
from zns.operators import _advect_raw, _odd_grids, apply_A, apply_L, jacobian
from zns.stepper import (
    BlowUpError,
    LinearSymbol,
    SimConfig,
    Stepper,
    budget_residual,
    build_coefficients,
    _phi,
)

from conftest import KERNEL_DOMAINS

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

    def test_continuity_across_series_threshold(self):
        for z in (0.4999 + 0.0j, 0.5001 + 0.0j, 0.35 + 0.35j, 0.36 + 0.36j):
            got = _phi(np.array([z]), 3)[0]
            assert abs(got - phi_reference(z, 3)) < 1e-14


class TestCoefficients:
    def test_rk4_limit_at_zero_symbol(self):
        d = Domain(N1=8, N2=8)
        sym = LinearSymbol(d, np.zeros((8, 8), dtype=complex))
        h = 0.25
        co = build_coefficients(sym, h)
        assert np.allclose(co.E, 1.0)
        assert np.allclose(co.Q, h / 2)
        assert np.allclose(co.f1, h / 6)
        assert np.allclose(co.f2, h / 6)
        assert np.allclose(co.f3, h / 6)

    def test_symbol_real_part_bound(self):
        d = Domain(N1=16, N2=16)
        sym = LinearSymbol.build(d, SimConfig(epsilon=0.01, mu=0.3))
        active = d.active
        assert np.all(sym.lam[active].real <= -0.3 * d.c0**2 + 1e-15)
        assert np.all(np.abs(np.exp(sym.lam * 0.1)) <= 1.0 + 1e-15)

    def test_symbol_imaginary_when_inviscid(self):
        d = Domain(N1=8, N2=8)
        sym = LinearSymbol.build(d, SimConfig(epsilon=0.5, mu=0.0))
        assert np.all(sym.lam.real == 0.0)

    def test_shared_tables_are_read_only(self):
        stepper = Stepper(Domain(N1=8, N2=8), SimConfig(epsilon=0.5, mu=1.0), 0.01)
        k, q = stepper.coeffs, stepper._quarter_coeffs
        for table in (stepper.symbol.lam, k.E, k.E2, k.Q, k.f1, k.f2, k.f3,
                      q.E, q.E2, q.Q, q.f1, q.f2, q.f3):
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
        assert all(x.flags.c_contiguous and x.shape == (3, 5) for x in (q.E, q.f3))

    def test_rejects_nonpositive_step(self):
        d = Domain(N1=8, N2=8)
        sym = LinearSymbol.build(d, SimConfig(epsilon=1.0, mu=1.0))
        with pytest.raises(ValueError):
            build_coefficients(sym, 0.0)


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
        sim = SimConfig(epsilon=0.01, mu=0.1, advection=False)
        st_ = Stepper(d, sim, h=0.05)
        w = SpectralField.from_modes(d, _parity_pack(1, 1, 0.8 + 0.1j))
        w1 = st_.step(w, 0.0)
        factor = np.exp((-0.2 + 50.0j) * 0.05)
        assert w1.get_mode(1, 1) == pytest.approx(w.get_mode(1, 1) * factor, rel=1e-15)

    @pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
    def test_exact_for_any_stiffness(self, eps, rng):
        d = Domain(N1=16, N2=16)
        sim = SimConfig(epsilon=eps, mu=0.7, advection=False)
        st_ = Stepper(d, sim, h=0.02)
        w = random_field(d, rng, norm_target=1.0)
        w1 = st_.step(w, 0.0)
        # note: exp(.)*coeffs, matching the production operand order;
        # complex a*b and b*a differ by an ulp when the FPU fuses multiplies
        expected = np.exp(st_.symbol.lam * 0.02) * w.coeffs
        assert np.max(np.abs(w1.coeffs - expected)) == 0.0

    def test_zonal_steady_balance(self):
        # With B off, the forced zonal mode relaxes onto f / (mu |k|^2).
        d = Domain(N1=16, N2=16)
        mu = 0.5
        forcing = make_forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)
        sim = SimConfig(epsilon=0.1, mu=mu, advection=False)
        st_ = Stepper(d, sim, h=0.05)
        fixed = SpectralField(d, forcing(0.0).coeffs / mu)  # |k|^2 = 1 there
        w = fixed.copy()
        for i in range(20):
            w = st_.step(w, i * 0.05, forcing)
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
            w = st_.step(w, i * 1e-3)
        assert abs(norm(w) ** 2 - ens0) < 1e-10 * ens0
        assert abs(sobolev_norm(w, -1) ** 2 - energy0) < 1e-10 * energy0

    def test_parity_and_mean_preserved(self, rng):
        d = Domain(N1=16, N2=16)
        forcing = make_forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d)
        st_ = Stepper(d, SimConfig(epsilon=0.1, mu=0.5), h=0.01)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        for i in range(50):
            w = st_.step(w, i * 0.01, forcing)
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
                w = st_.step(w, i * h, forcing)
            errs.append(norm(w - exact(T)))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order >= 3.7


class TestBlowUp:
    def test_huge_state_aborts_with_diagnostics(self):
        d = Domain(N1=8, N2=8)
        st_ = Stepper(d, SimConfig(epsilon=1.0, mu=0.0), h=0.1)
        w = SpectralField.from_modes(d, _parity_pack(1, 1, 1e13))
        with pytest.raises(BlowUpError) as info:
            st_.step(w, 3.0)
        assert info.value.t == pytest.approx(3.1)
        assert info.value.magnitude > 1e12
        assert info.value.mode in {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_nan_detected(self):
        d = Domain(N1=8, N2=8)
        st_ = Stepper(d, SimConfig(epsilon=1.0, mu=0.1), h=0.1)
        w = SpectralField.zeros(d)
        w.coeffs[1, 1] = np.nan
        with pytest.raises(BlowUpError):
            st_.step(w, 0.0)


class TestTangent:
    def test_zero_is_fixed_point(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        _, stages = st_.step_with_stages(w, 0.0)
        phi = st_.tangent_step(SpectralField.zeros(d), stages)
        assert norm(phi) == 0.0

    def test_zero_base_reduces_to_linear_flow(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        _, stages = st_.step_with_stages(SpectralField.zeros(d), 0.0)
        phi0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        phi1 = st_.tangent_step(phi0, stages)
        expected = np.exp(st_.symbol.lam * 0.01) * phi0.coeffs
        assert np.max(np.abs(phi1.coeffs - expected)) == 0.0

    def test_linearity(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        _, stages = st_.step_with_stages(w, 0.0)
        p1 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        p2 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        alpha = 1.7
        combined = st_.tangent_step(alpha * p1 + p2, stages)
        separate = alpha * st_.tangent_step(p1, stages) + st_.tangent_step(p2, stages)
        assert norm(combined - separate) < 1e-13 * norm(combined)

    def test_finite_difference_consistency(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3), h=0.01)
        w0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        phi0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        n = 20

        def advance(w):
            for i in range(n):
                w = st_.step(w, i * 0.01)
            return w

        w, phi = w0.copy(), phi0.copy()
        for i in range(n):
            w, phi = st_.step_pair(w, phi, i * 0.01)
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
        forcing = make_forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)
        sim = SimConfig(epsilon=0.1, mu=mu, advection=False)
        st_ = Stepper(d, sim, h=0.05)
        w = SpectralField(d, forcing(0.0).coeffs / mu)
        w1 = st_.step(w, 0.0, forcing)
        assert budget_residual(w, w1, 0.0, 0.05, forcing, sim) < 1e-12

    def test_unforced_inviscid_conservation(self, rng):
        d = Domain(N1=16, N2=16)
        sim = SimConfig(epsilon=1.0, mu=0.0)
        st_ = Stepper(d, sim, h=1e-3)
        w = random_field(d, rng, kmax=4.0, norm_target=1.0)
        w1 = st_.step(w, 0.0)
        assert budget_residual(w, w1, 0.0, 1e-3, None, sim) < 1e-8

    def test_second_order_in_h(self, rng):
        d = Domain(N1=16, N2=16)
        forcing = make_forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d)
        sim = SimConfig(epsilon=0.2, mu=0.5)
        w0 = random_field(d, rng, kmax=4.0, norm_target=1.0)
        vals = []
        for h in (4e-3, 2e-3):
            st_ = Stepper(d, sim, h)
            # evolve a little first so the state is generic
            w = w0.copy()
            for i in range(10):
                w = st_.step(w, i * h, forcing)
            w1 = st_.step(w, 10 * h, forcing)
            vals.append(budget_residual(w, w1, 10 * h, h, forcing, sim))
        ratio = vals[0] / vals[1]
        assert 2.5 < ratio < 6.0

    @pytest.mark.parametrize("d", [
        Domain(N1=16, N2=16), Domain(L1=4 * np.pi, N1=24, N2=16), Domain(N1=16, N2=32),
    ], ids=["16x16", "24x16-L1=4pi", "16x32"])
    @pytest.mark.parametrize("forced", [True, False], ids=["forced", "unforced"])
    def test_matches_midpoint_formula(self, d, forced, rng):
        spec = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))
        forcing = make_forcing(spec, d) if forced else None
        sim = SimConfig(epsilon=0.2, mu=0.5)
        h = 4e-3
        w = random_field(d, rng, norm_target=1.0)
        w1 = Stepper(d, sim, h).step(w, 0.3, forcing)
        mid = 0.5 * (w + w1)
        terms = (
            (norm(w1) ** 2 - norm(w) ** 2) / (2.0 * h),
            sim.mu * sobolev_norm(mid, 1.0) ** 2,
            inner(forcing(0.3 + h / 2), mid) if forced else 0.0,
        )
        want = abs(terms[0] + terms[1] - terms[2])
        got = budget_residual(w, w1, 0.3, h, forcing, sim)
        assert type(got) is float
        assert abs(got - want) <= 1e-13 * sum(abs(x) for x in terms)


def full_width_tables(st_: Stepper) -> SimpleNamespace:
    """The ETDRK4 weights on the full (N2, N1) symbol."""
    h, z = st_.h, st_.h * st_.symbol.lam
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
    """The step runs on the m1 >= 0 half and unfolds once, at its output."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
    def test_matches_full_width_reference(self, d, odd, rng):
        forcing = make_forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        k = full_width_tables(st_)
        w = random_field(d, rng, norm_target=2.0, odd_in_y=odd)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
        w_ref, phi_ref = w, phi
        for i in range(20):
            w, phi = st_.step_pair(w, phi, i * 0.01, forcing)
            w_ref, phi_ref = full_width_step_pair(st_, k, w_ref, phi_ref, i * 0.01, forcing)
        for got, want in ((w, w_ref), (phi, phi_ref)):
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))

    def test_outputs_are_exactly_real_and_stages_half_width(self, rng):
        d = Domain(L1=4 * np.pi, N1=24, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0, odd_in_y=False)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        w1, stages = st_.step_with_stages(w, 0.0, make_forcing(self.SPEC, d))
        assert reality_error(w1) == 0.0
        assert reality_error(st_.tangent_step(phi, stages)) == 0.0
        for x in (stages.u0, stages.a, stages.b, stages.c, st_.coeffs.E):
            assert x.shape == (16, 13)

    def test_one_unfold_per_step_and_per_tangent_step(self, monkeypatch, rng):
        import zns.operators
        import zns.stepper
        from zns.lattice import _unfold

        calls = []

        def counting_unfold(d, half):
            calls.append(half.shape)
            return _unfold(d, half)

        monkeypatch.setattr(zns.stepper, "_unfold", counting_unfold)
        monkeypatch.setattr(zns.operators, "_unfold", counting_unfold)
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        _, stages = st_.step_with_stages(w, 0.0, make_forcing(self.SPEC, d))
        assert calls == [(16, 9)]
        st_.tangent_step(random_field(d, rng, norm_target=1.0), stages)
        assert calls == [(16, 9), (16, 9)]


def general_path(monkeypatch):
    """Make every step take the half-width path, as it does for input that is not odd."""
    import zns.stepper

    monkeypatch.setattr(zns.stepper, "_odd_quarter", lambda d, H: None)


class TestQuarterStep:
    """Exactly odd input steps on the m2 > 0 quarter and stays exactly odd."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_matches_general_path(self, d, monkeypatch):
        forcing = make_forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        rng = np.random.default_rng(11)
        w0 = random_field(d, rng, norm_target=2.0)
        phi0 = random_field(d, rng, norm_target=1.0)

        def run():
            w, phi = w0, phi0
            for i in range(20):
                w, phi = st_.step_pair(w, phi, i * 0.01, forcing)
            return w, phi

        _, stages = st_.step_with_stages(w0, 0.0, forcing)
        assert stages.u0.shape == (d.N2 // 2 - 1, d.N1 // 2 + 1)
        quarter = run()
        general_path(monkeypatch)
        _, stages = st_.step_with_stages(w0, 0.0, forcing)
        assert stages.u0.shape == (d.N2, d.N1 // 2 + 1)
        for got, want in zip(quarter, run()):
            assert parity_error(got) == 0.0
            assert reality_error(got) == 0.0
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))

    def test_integrate_keeps_every_state_exactly_odd(self):
        from zns.harness import initial_state, integrate

        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.1, mu=0.5), h=0.01)
        rng = np.random.default_rng(12)
        errors = []

        def observe(t, w, tangent, partner, recorded):
            errors.extend(parity_error(f) for f in (w, tangent, partner))

        integrate(st_, make_forcing(self.SPEC, d), initial_state(d, 1, 0.5), 0.0, 3.0,
                  record_every=50, tangent=random_field(d, rng, norm_target=1.0),
                  partner=initial_state(d, 2, 0.5), observe=observe)
        assert len(errors) == 3 * 300
        assert max(errors) == 0.0

    def test_one_ulp_off_odd_and_not_odd_take_the_general_path(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = make_forcing(self.SPEC, d)
        w = random_field(d, rng, norm_target=2.0)
        _, stages = st_.step_with_stages(w, 0.0, forcing)
        assert stages.u0.shape == (7, 9)
        ulp = w.copy()
        c = ulp.coeffs[2, 1]
        ulp.coeffs[2, 1] = complex(np.nextafter(c.real, np.inf), c.imag)
        ulp.coeffs[-2, -1] = np.conj(ulp.coeffs[2, 1])  # still exactly real
        assert reality_error(ulp) == 0.0 and 0.0 < parity_error(ulp) < 1e-15
        for x in (ulp, random_field(d, rng, norm_target=2.0, odd_in_y=False)):
            _, stages = st_.step_with_stages(x, 0.0, forcing)
            for s in (stages.u0, stages.a, stages.b, stages.c):
                assert s.shape == (16, 9)

    def test_forcing_not_exactly_odd_takes_the_general_path(self, rng):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        even = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        w = random_field(d, rng, norm_target=2.0)
        _, stages = st_.step_with_stages(w, 0.0, lambda t: even)
        assert stages.u0.shape == (16, 9)
        _, stages = st_.step_with_stages(w, 0.0, make_forcing(self.SPEC, d))
        assert stages.u0.shape == (7, 9)

    def test_tangent_not_odd_on_quarter_stages(self, rng, monkeypatch):
        d = Domain(L1=4 * np.pi, N1=24, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        forcing = make_forcing(self.SPEC, d)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        _, stages = st_.step_with_stages(w, 0.0, forcing)
        assert stages.u0.shape == (7, 13)
        got = st_.tangent_step(phi, stages)
        assert reality_error(got) == 0.0
        general_path(monkeypatch)
        _, stages = st_.step_with_stages(w, 0.0, forcing)
        want = st_.tangent_step(phi, stages)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    @pytest.mark.parametrize("eps,mu", [(0.2, 0.5), (1e-4, 0.03), (3.0, 0.0)])
    def test_weights_are_exactly_even_in_m2(self, d, eps, mu):
        k = Stepper(d, SimConfig(epsilon=eps, mu=mu), h=0.01).coeffs
        for table in (k.E, k.E2, k.Q, k.f1, k.f2, k.f3):
            assert np.array_equal(table, table[d._flip_m2])

    def test_blowup_reports_the_true_mode(self):
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=1.0, mu=0.0, advection=False), h=0.1)
        w = SpectralField.from_modes(d, _parity_pack(2, 3, 1e13j))
        with pytest.raises(BlowUpError) as info:
            st_.step(w, 0.0)
        assert info.value.mode == (2, 3)


def count_transforms(monkeypatch) -> dict:
    """Count the real transforms the solver makes, by patching ``np.fft``."""
    counts = {"irfft2": 0, "rfft2": 0}
    for name in counts:
        fn = getattr(np.fft, name)

        def counted(*args, fn=fn, name=name, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts


class TestCachedTangentStage:
    """A quarter tangent stage is the odd part of one grid sum over cached base grids."""

    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))

    @pytest.mark.parametrize("n", [32, 64])
    def test_matches_two_advection_calls(self, n, rng):
        d = Domain(N1=n, N2=n)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        quarter = np.s_[1 : n // 2, : n // 2 + 1]
        for _ in range(3):
            W = random_field(d, rng, norm_target=2.0).coeffs[quarter]
            P = random_field(d, rng, norm_target=1.0).coeffs[quarter]
            want = -(_advect_raw(d, W, P) + _advect_raw(d, P, W))
            for grids in (_odd_grids(d, W), None):
                got = st_._tangent_nonlinear(W, P, grids)
                assert got.shape == W.shape
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_tangent_step_without_grids_matches_step_pair(self, d, rng):
        forcing = make_forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0)
        w1, phi1 = st_.step_pair(w, phi, 0.3, forcing)
        w2, stages = st_.step_with_stages(w, 0.3, forcing)
        assert stages.grids is None and stages.u0.shape[0] == d.N2 // 2 - 1
        phi2 = st_.tangent_step(phi, stages)
        assert np.array_equal(w1.coeffs, w2.coeffs)
        assert parity_error(phi2) == 0.0 and reality_error(phi2) == 0.0
        assert np.max(np.abs(phi2.coeffs - phi1.coeffs)) <= 1e-15 * np.max(np.abs(phi1.coeffs))

    def test_linear_flow_builds_no_grids(self, rng, monkeypatch):
        import zns.stepper

        def no_grids(d, Q):
            raise AssertionError("the linear flow built a grid")

        monkeypatch.setattr(zns.stepper, "_odd_grids", no_grids)
        d = Domain(N1=16, N2=16)
        st_ = Stepper(d, SimConfig(epsilon=0.5, mu=0.3, advection=False), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0)
        _, stages = st_.step_with_stages(w, 0.0, _grids=True)
        assert stages.grids is None and stages.u0.shape == (7, 9)
        expected = np.exp(st_.symbol.lam * 0.01) * phi.coeffs
        for got in (st_.tangent_step(phi, stages), st_.step_pair(w, phi, 0.0)[1]):
            assert np.max(np.abs(got.coeffs - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_transform_counts(self, monkeypatch, rng):
        d = Domain(N1=16, N2=16)
        forcing = make_forcing(self.SPEC, d)
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0)
        phi = random_field(d, rng, norm_target=1.0)
        counts = count_transforms(monkeypatch)

        def take():
            out = dict(counts)
            counts.update(irfft2=0, rfft2=0)
            return out

        # Odd state: 3 transforms per base stage; the tangent reuses the base grids.
        _, stages = st_.step_with_stages(w, 0.0, forcing, _grids=True)
        assert len(stages.grids) == 4 and take() == {"irfft2": 8, "rfft2": 4}
        st_.tangent_step(phi, stages)
        assert take() == {"irfft2": 8, "rfft2": 4}
        st_.step_pair(w, phi, 0.0, forcing)
        assert take() == {"irfft2": 16, "rfft2": 8}
        # A plain step keeps no grids; a tangent on its stages builds them.
        _, stages = st_.step_with_stages(w, 0.0, forcing)
        assert stages.grids is None and take() == {"irfft2": 8, "rfft2": 4}
        st_.tangent_step(phi, stages)
        assert take() == {"irfft2": 16, "rfft2": 4}
        # Not odd: 5 transforms per advection call, two calls per tangent stage.
        st_.step_pair(random_field(d, rng, norm_target=2.0, odd_in_y=False), phi, 0.0, forcing)
        assert take() == {"irfft2": 48, "rfft2": 12}

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
        st_.step_pair(w, random_field(d, rng, norm_target=1.0), 0.0)
        st_.step(w, 0.0)
        assert calls == ["step_with_stages", "tangent_step", "step_with_stages"]


class TestSteadyForcingView:
    SPEC = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5), (2, 3, 0.2 - 0.1j)))

    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
    def test_step_unchanged_and_base_never_written(self, odd, rng):
        d = Domain(N1=16, N2=16)
        forcing = make_forcing(self.SPEC, d)
        base = forcing(0.0).coeffs
        st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
        w = random_field(d, rng, norm_target=2.0, odd_in_y=odd)
        phi = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
        by_view = st_.step_pair(w, phi, 0.3, forcing)
        by_call = st_.step_pair(w, phi, 0.3, lambda t: forcing(t))
        for got, want in zip(by_view, by_call):
            assert np.array_equal(got.coeffs, want.coeffs)
        assert budget_residual(w, by_view[0], 0.3, 0.01, forcing, st_.config) == \
            budget_residual(w, by_view[0], 0.3, 0.01, lambda t: forcing(t), st_.config)
        assert not forcing.coeffs_at(0.0).flags.writeable
        assert np.array_equal(forcing.coeffs_at(0.7), base)
        # The call still hands out a private, writable copy.
        f = forcing(1.0)
        f.coeffs[1, 1] = 5.0
        assert np.array_equal(forcing(1.0).coeffs, base)


@pytest.mark.parametrize("sigma", [0.0, 1.3], ids=["steady", "time-periodic"])
@pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
def test_forcing_evaluated_once_per_distinct_time(sigma, odd, rng):
    d = Domain(N1=16, N2=16)
    kind = "time-periodic" if sigma else "steady"
    forcing = make_forcing(ForcingSpec(TestSteadyForcingView.SPEC.modes, kind, sigma), d)
    times = []

    def counted(t):
        times.append(t)
        return forcing(t)

    st_ = Stepper(d, SimConfig(epsilon=0.2, mu=0.5), h=0.01)
    w = random_field(d, rng, norm_target=2.0, odd_in_y=odd)
    phi = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
    by_call = st_.step_pair(w, phi, 0.3, counted)
    assert times == [0.3, 0.3 + 0.01 / 2, 0.3 + 0.01]
    for got, want in zip(by_call, st_.step_pair(w, phi, 0.3, forcing)):
        assert np.array_equal(got.coeffs, want.coeffs)


def budget_residual_three_pass(w, w_next, t, h, forcing, config):
    """The enstrophy-budget defect as three ``_half_power`` sums and an inner product."""
    from zns.lattice import _half_power

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
    forcing = make_forcing(ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5))), d) if forced else None
    sim = SimConfig(epsilon=0.2, mu=0.5)
    st_ = Stepper(d, sim, 4e-3)
    w = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
    w1 = st_.step(w, 0.3, forcing)
    want, scale = budget_residual_three_pass(w, w1, 0.3, 4e-3, forcing, sim)
    got = budget_residual(w, w1, 0.3, 4e-3, forcing, sim)
    assert abs(got - want) <= 1e-12 * scale
