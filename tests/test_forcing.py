"""Forcing construction, symmetry closure, time dependence and K_s norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zns.diagnostics import grashof, sobolev_norm
from zns.forcing import ForcingSpec, k_s_norm, make_forcing, spec_from_entries
from zns.lattice import Domain, norm, parity_error, reality_error, to_grid
from zns.operators import split

BENCHMARK = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))


class TestSpecValidation:
    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            make_forcing(ForcingSpec(modes=((0, 0, 1.0),)), Domain(N1=16, N2=16))

    def test_rejects_flat_in_y_mode(self):
        with pytest.raises(ValueError):
            make_forcing(ForcingSpec(modes=((2, 0, 1.0),)), Domain(N1=16, N2=16))

    def test_rejects_complex_zonal_amplitude(self):
        with pytest.raises(ValueError):
            make_forcing(ForcingSpec(modes=((0, 1, 1.0 + 1.0j),)), Domain(N1=16, N2=16))

    def test_rejects_inconsistent_duplicate(self):
        spec = ForcingSpec(modes=((1, 1, 1.0), (1, -1, 1.0)))  # partner must be -1.0
        with pytest.raises(ValueError):
            make_forcing(spec, Domain(N1=16, N2=16))

    def test_accepts_consistent_pair_without_doubling(self):
        d = Domain(N1=16, N2=16)
        single = make_forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)(0.0)
        pair = make_forcing(ForcingSpec(modes=((0, 1, 1.0), (0, -1, -1.0))), d)(0.0)
        assert np.array_equal(single.coeffs, pair.coeffs)

    def test_rejects_modes_outside_dealias_band(self):
        with pytest.raises(ValueError):
            make_forcing(ForcingSpec(modes=((0, 3, 1.0),)), Domain(N1=8, N2=8))

    def test_rejects_unknown_kind_and_bad_sigma(self):
        with pytest.raises(ValueError):
            ForcingSpec(modes=((0, 1, 1.0),), kind="random")
        with pytest.raises(ValueError):
            ForcingSpec(modes=((0, 1, 1.0),), kind="steady", sigma=2.0)


class TestEvaluation:
    def test_zonal_pair_is_purely_zonal(self):
        d = Domain(N1=16, N2=16)
        f = make_forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)(0.0)
        zonal, fast = split(f)
        assert norm(fast) == 0.0
        # amplitude 1 on (0, 1) is the field 2 sin(y)
        g = to_grid(f).values
        assert np.allclose(g, 2.0 * np.sin(d.grid_y())[:, None], atol=1e-14)

    def test_benchmark_has_both_components(self):
        d = Domain(N1=16, N2=16)
        f = make_forcing(BENCHMARK, d)(0.0)
        zonal, fast = split(f)
        assert norm(zonal) > 0 and norm(fast) > 0
        x, y = d.grid_x(), d.grid_y()
        want = 2.0 * np.sin(y)[:, None] + np.cos(x)[None, :] * np.sin(y)[:, None]
        assert np.allclose(to_grid(f).values, want, atol=1e-14)

    def test_steady_output_time_independent(self):
        d = Domain(N1=16, N2=16)
        forcing = make_forcing(BENCHMARK, d)
        assert forcing.is_steady
        assert np.array_equal(forcing(0.0).coeffs, forcing(17.3).coeffs)

    def test_periodic_modulus_constant_and_derivative(self):
        d = Domain(N1=16, N2=16)
        spec = ForcingSpec(modes=((1, 1, 0.5), (2, 1, 0.25j)), kind="time-periodic", sigma=1.5)
        forcing = make_forcing(spec, d)
        f0, f1 = forcing(0.0), forcing(0.9)
        assert np.allclose(np.abs(f0.coeffs), np.abs(f1.coeffs), atol=1e-15)
        # derivative against central differences
        h = 1e-6
        fd = (forcing(0.9 + h).coeffs - forcing(0.9 - h).coeffs) / (2 * h)
        assert np.max(np.abs(fd - forcing.derivative(0.9).coeffs)) < 1e-7
        # mode-wise |df/dt| = sigma |f| on non-zonal modes
        dcoef = forcing.derivative(0.3).coeffs
        assert np.allclose(np.abs(dcoef), 1.5 * np.abs(f0.coeffs), atol=1e-15)

    def test_periodic_phase_matches_full_width_formula(self):
        d = Domain(N1=16, N2=12)
        modes = ((0, 1, 1.0), (1, 1, 0.5), (2, 1, 0.25j))
        forcing = make_forcing(ForcingSpec(modes, kind="time-periodic", sigma=1.5), d)
        base = make_forcing(ForcingSpec(modes), d).coeffs_at(0.0)
        rot = 1.5 * np.sign(d.kx)  # one frequency per (m2, m1) entry
        assert forcing._rot.shape == (d.N1,)
        for t in (0.0, 0.37, 12.5):
            phase = np.exp(1j * rot * t)
            assert np.array_equal(forcing.coeffs_at(t), base * phase)
            assert np.array_equal(forcing.derivative(t).coeffs, base * (1j * rot) * phase)

    def test_periodic_keeps_zonal_part_steady(self):
        d = Domain(N1=16, N2=16)
        spec = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)), kind="time-periodic", sigma=2.0)
        forcing = make_forcing(spec, d)
        z0, _ = split(forcing(0.0))
        z1, _ = split(forcing(1.234))
        assert np.array_equal(z0.coeffs, z1.coeffs)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_output_invariants_random_specs(self, seed):
        rng = np.random.default_rng(seed)
        d = Domain(N1=16, N2=16)
        n_modes = rng.integers(1, 5)
        modes = []
        seen = set()
        for _ in range(n_modes):
            m1 = int(rng.integers(0, 5))
            m2 = int(rng.integers(1, 5))
            if (m1, m2) in seen:
                continue
            seen.add((m1, m2))
            amp = complex(rng.normal(), 0.0 if m1 == 0 else rng.normal())
            modes.append((m1, m2, amp))
        kind = "time-periodic" if rng.random() < 0.5 else "steady"
        sigma = float(rng.uniform(0.1, 3.0)) if kind == "time-periodic" else 0.0
        forcing = make_forcing(ForcingSpec(modes=tuple(modes), kind=kind, sigma=sigma), d)
        t = float(rng.uniform(0, 10))
        f = forcing(t)
        assert f.coeffs[0, 0] == 0.0
        assert parity_error(f) < 1e-14
        assert reality_error(f) < 1e-14


def test_bulk_invariant_ensemble():
    # 10^4 random valid specs; output must satisfy the field invariants.
    rng = np.random.default_rng(99)
    d = Domain(N1=8, N2=8)
    for _ in range(10_000):
        m1 = int(rng.integers(0, 3))
        m2 = int(rng.integers(1, 3))
        amp = complex(rng.normal(), 0.0 if m1 == 0 else rng.normal())
        kind = "time-periodic" if rng.random() < 0.5 else "steady"
        sigma = 1.0 if kind == "time-periodic" else 0.0
        forcing = make_forcing(ForcingSpec(((m1, m2, amp),), kind, sigma), d)
        f = forcing(float(rng.uniform(0, 5)))
        assert f.coeffs[0, 0] == 0.0
        assert parity_error(f) < 1e-14
        assert reality_error(f) < 1e-14


class TestKsNorm:
    def test_zero_spec(self):
        assert k_s_norm(ForcingSpec(modes=()), 0) == 0.0

    def test_single_mode_gradient_factor(self):
        # |grad^2 f| = |k|^2 |f| = 2 |f| for the (1,1) mode set
        spec = ForcingSpec(modes=((1, 1, 1.0),))
        d = Domain(N1=16, N2=16)
        f = make_forcing(spec, d)(0.0)
        assert k_s_norm(spec, 0, d) == pytest.approx(2.0 * norm(f), rel=1e-13)
        assert k_s_norm(spec, 0, d) == pytest.approx(sobolev_norm(f, 2), rel=1e-13)

    def test_temporal_part_linear_in_sigma(self):
        d = Domain(N1=16, N2=16)
        base = ForcingSpec(modes=((1, 1, 1.0),))
        k1 = k_s_norm(ForcingSpec(base.modes, "time-periodic", 1.0), 0, d)
        k2 = k_s_norm(ForcingSpec(base.modes, "time-periodic", 2.0), 0, d)
        spatial = k_s_norm(base, 0, d)
        assert (k2 - spatial) == pytest.approx(2.0 * (k1 - spatial), rel=1e-13)

    def test_matches_field_norms(self):
        d = Domain(N1=32, N2=32)
        spec = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5), (2, 3, 1.0 - 0.5j)),
                           kind="time-periodic", sigma=0.7)
        forcing = make_forcing(spec, d)
        for s in (0, 1, 2):
            want = sobolev_norm(forcing(0.0), s + 2) + sobolev_norm(forcing.derivative(0.0), s)
            assert k_s_norm(spec, s, d) == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            k_s_norm(BENCHMARK, -1)

    def test_order_defaults_to_declared_smoothness(self):
        d = Domain(N1=16, N2=16)
        assert k_s_norm(BENCHMARK, domain=d) == k_s_norm(
            BENCHMARK, BENCHMARK.smoothness_order, d
        )


class TestGrashofCoupling:
    def test_linear_in_amplitude(self):
        d = Domain(N1=16, N2=16)
        g1 = grashof(make_forcing(BENCHMARK, d), 0.5)
        g2 = grashof(make_forcing(BENCHMARK.scaled(2.0), d), 0.5)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-13)

    def test_spec_closed_form_matches_field(self):
        d = Domain(N1=16, N2=16)
        from_field = grashof(make_forcing(BENCHMARK, d), 0.5)
        from_spec = grashof(BENCHMARK, 0.5)
        assert from_spec == pytest.approx(from_field, rel=1e-13)


def test_spec_from_entries_roundtrip():
    spec = spec_from_entries([(0, 1, 1.0, 0.0), (1, 1, 0.5, -0.25)], "time-periodic", 0.3)
    assert spec.modes == ((0, 1, 1.0 + 0.0j), (1, 1, 0.5 - 0.25j))
    assert spec.kind == "time-periodic" and spec.sigma == 0.3
