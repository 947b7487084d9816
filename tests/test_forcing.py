"""Forcing construction, symmetry closure, time dependence and the a-priori norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zns.diagnostics import sobolev_norm
from zns.forcing import Forcing, ForcingSpec
from zns.lattice import Domain, norm, parity_error, reality_error, to_grid
from zns.operators import split

BENCHMARK = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)))


class TestSpecValidation:
    def test_rejects_zero_mode(self):
        with pytest.raises(ValueError):
            Forcing(ForcingSpec(modes=((0, 0, 1.0),)), Domain(N1=16, N2=16))

    def test_rejects_flat_in_y_mode(self):
        with pytest.raises(ValueError):
            Forcing(ForcingSpec(modes=((2, 0, 1.0),)), Domain(N1=16, N2=16))

    def test_rejects_complex_zonal_amplitude(self):
        with pytest.raises(ValueError):
            Forcing(ForcingSpec(modes=((0, 1, 1.0 + 1.0j),)), Domain(N1=16, N2=16))

    def test_rejects_inconsistent_duplicate(self):
        spec = ForcingSpec(modes=((1, 1, 1.0), (1, -1, 1.0)))  # partner must be -1.0
        with pytest.raises(ValueError):
            Forcing(spec, Domain(N1=16, N2=16))

    def test_accepts_consistent_pair_without_doubling(self):
        d = Domain(N1=16, N2=16)
        single = Forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)(0.0)
        pair = Forcing(ForcingSpec(modes=((0, 1, 1.0), (0, -1, -1.0))), d)(0.0)
        assert np.array_equal(single.coeffs, pair.coeffs)

    def test_rejects_modes_outside_dealias_band(self):
        with pytest.raises(ValueError):
            Forcing(ForcingSpec(modes=((0, 3, 1.0),)), Domain(N1=8, N2=8))


class TestEvaluation:
    def test_zonal_pair_is_purely_zonal(self):
        d = Domain(N1=16, N2=16)
        f = Forcing(ForcingSpec(modes=((0, 1, 1.0),)), d)(0.0)
        zonal, fast = split(f)
        assert norm(fast) == 0.0
        # amplitude 1 on (0, 1) is the field 2 sin(y)
        g = to_grid(f)
        assert np.allclose(g, 2.0 * np.sin(d.grid_y())[:, None], atol=1e-14)

    def test_benchmark_has_both_components(self):
        d = Domain(N1=16, N2=16)
        f = Forcing(BENCHMARK, d)(0.0)
        zonal, fast = split(f)
        assert norm(zonal) > 0 and norm(fast) > 0
        x, y = d.grid_x(), d.grid_y()
        want = 2.0 * np.sin(y)[:, None] + np.cos(x)[None, :] * np.sin(y)[:, None]
        assert np.allclose(to_grid(f), want, atol=1e-14)

    def test_steady_output_time_independent(self):
        d = Domain(N1=16, N2=16)
        forcing = Forcing(BENCHMARK, d)
        assert forcing.is_steady
        assert np.array_equal(forcing(0.0).coeffs, forcing(17.3).coeffs)

    def test_periodic_modulus_constant_and_derivative(self):
        d = Domain(N1=16, N2=16)
        spec = ForcingSpec(modes=((1, 1, 0.5), (2, 1, 0.25j)), sigma=1.5)
        forcing = Forcing(spec, d)
        f0, f1 = forcing(0.0), forcing(0.9)
        assert np.allclose(np.abs(f0.coeffs), np.abs(f1.coeffs), atol=1e-15)

    def test_periodic_phase_matches_full_width_formula(self):
        d = Domain(N1=16, N2=12)
        modes = ((0, 1, 1.0), (1, 1, 0.5), (2, 1, 0.25j))
        # sigma alone makes a spec time-periodic; without it the spec is steady.
        forcing = Forcing(ForcingSpec(modes, sigma=1.5), d)
        steady = Forcing(ForcingSpec(modes), d)
        assert not forcing.is_steady and steady.is_steady
        base, quarter = steady(0.0).coeffs, steady.coeffs_at(0.0)
        rows = np.s_[1:4, :6]  # the band block: m2 = 1..3 (|m2| < 4), m1 = 0..5 (|m1| < 16/3)
        rot = 1.5 * np.sign(d.kx)  # one frequency per (m2, m1) entry
        assert forcing._rot.shape == (6,)
        for t in (0.0, 0.37, 12.5):
            phase = np.exp(1j * rot * t)
            assert np.array_equal(forcing.coeffs_at(t), quarter * phase[rows])
            assert np.array_equal(forcing(t).coeffs, base * phase)

    def test_periodic_keeps_zonal_part_steady(self):
        d = Domain(N1=16, N2=16)
        spec = ForcingSpec(modes=((0, 1, 1.0), (1, 1, 0.5)), sigma=2.0)
        forcing = Forcing(spec, d)
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
        periodic = rng.random() < 0.5
        sigma = float(rng.uniform(0.1, 3.0)) if periodic else 0.0
        forcing = Forcing(ForcingSpec(modes=tuple(modes), sigma=sigma), d)
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
        sigma = 1.0 if rng.random() < 0.5 else 0.0
        forcing = Forcing(ForcingSpec(((m1, m2, amp),), sigma), d)
        f = forcing(float(rng.uniform(0, 5)))
        assert f.coeffs[0, 0] == 0.0
        assert parity_error(f) < 1e-14
        assert reality_error(f) < 1e-14


def four_way_scatter(spec: ForcingSpec, d: Domain, t: float) -> np.ndarray:
    """The full coefficients as the forcing once stored them: each canonical mode's
    coefficient and its parity and Hermitian partners, rotated as ``exp(i sign(k1) sigma t)``."""
    base = np.zeros((d.N2, d.N1), dtype=np.complex128)
    for (m1, m2), a in spec.canonical_modes().items():
        c = -0.5j * a
        base[m2 % d.N2, m1 % d.N1] += c
        base[-m2 % d.N2, m1 % d.N1] += -c
        base[-m2 % d.N2, -m1 % d.N1] += np.conj(c)
        base[m2 % d.N2, -m1 % d.N1] += -np.conj(c)
    return base * np.exp(1j * spec.sigma * np.sign(d.kx) * t)


@pytest.mark.parametrize("sigma", [0.0, 0.7], ids=["steady", "time-periodic"])
def test_matches_four_way_scatter(sigma):
    modes = ((0, 1, 1.0), (1, 1, 0.5), (3, 2, 1.0 - 0.5j), (0, 4, -0.3), (7, 1, 0.1j))
    spec = ForcingSpec(modes, sigma)
    for d in (Domain(L1=4 * np.pi, N1=24, N2=16), Domain(N1=32, N2=32)):
        forcing = Forcing(spec, d)
        for t in (0.0, 0.37, 12.5):
            want = four_way_scatter(spec, d, t)
            assert np.array_equal(forcing(t).coeffs, want)
            assert np.array_equal(forcing.coeffs_at(t), want[d._block])


def closed_form_sums(spec: ForcingSpec, d: Domain, weight) -> float:
    """``L1 L2 sum weight(k^2, m1) |c|^2`` over the coefficient closure, from the mode list:
    a zonal entry gives two coefficients of modulus |a|, any other four of |a|/2."""
    total = 0.0
    for (m1, m2), a in spec.canonical_modes().items():
        ksq = (2.0 * np.pi * m1 / d.L1) ** 2 + (2.0 * np.pi * m2 / d.L2) ** 2
        count, mod = (2, abs(a)) if m1 == 0 else (4, abs(a) / 2.0)
        total += count * weight(ksq, m1) * mod**2
    return d.area * total


RECTANGLE = Domain(L1=4 * np.pi, N1=24, N2=16)
RECTANGLE_SPEC = ForcingSpec(((0, 1, 1.0), (1, 1, 0.5), (3, 2, 1.0 - 0.5j), (0, 4, -0.3)),
                             sigma=0.7)


class TestKsNorm:
    # K_s = sup_t |grad^(s+2) f| + sup_t |grad^s df/dt|, both attained at t = 0, where
    # df/dt has modulus |sigma| |f| on the fast (rotating) modes and 0 on the zonal ones:
    # K_s = sobolev_norm(f(0), s + 2) + |sigma| sobolev_norm(fast part of f(0), s).
    def test_zero_spec(self):
        assert sobolev_norm(Forcing(ForcingSpec(modes=()), Domain(N1=8, N2=8))(0.0), 2) == 0.0

    def test_single_mode_gradient_factor(self):
        # |grad^2 f| = |k|^2 |f| = 2 |f| for the (1,1) mode set
        spec = ForcingSpec(modes=((1, 1, 1.0),))
        d = Domain(N1=16, N2=16)
        f = Forcing(spec, d)(0.0)
        assert sobolev_norm(f, 2) == pytest.approx(2.0 * norm(f), rel=1e-13)

    def test_temporal_part_linear_in_sigma(self):
        # f(0) does not depend on sigma, so neither does anything but the factor |sigma|.
        d = Domain(N1=16, N2=16)
        base = ForcingSpec(modes=((1, 1, 1.0),))

        def k_s(sigma):
            f = Forcing(ForcingSpec(base.modes, sigma=sigma), d)(0.0)
            return sobolev_norm(f, 2) + abs(sigma) * sobolev_norm(split(f)[1], 0)

        k1, k2, spatial = k_s(1.0), k_s(2.0), k_s(0.0)
        assert (k2 - spatial) == pytest.approx(2.0 * (k1 - spatial), rel=1e-13)

    def test_matches_closed_form_on_a_rectangle(self):
        # Spatial part over every coefficient; temporal part |df/dt| = sigma |f|
        # on the rotating (m1 != 0) coefficients only.
        f = Forcing(RECTANGLE_SPEC, RECTANGLE)(0.0)
        sigma = RECTANGLE_SPEC.sigma
        for s in (0, 1, 2):
            spatial = closed_form_sums(RECTANGLE_SPEC, RECTANGLE, lambda ksq, m1: ksq ** (s + 2))
            temporal = closed_form_sums(
                RECTANGLE_SPEC, RECTANGLE, lambda ksq, m1: (sigma**2 * ksq**s) if m1 else 0.0
            )
            assert sobolev_norm(f, s + 2) == pytest.approx(np.sqrt(spatial), rel=1e-13)
            assert sigma * sobolev_norm(split(f)[1], s) == pytest.approx(np.sqrt(temporal),
                                                                          rel=1e-13)


class TestGrashofCoupling:
    # The Grashof number is |grad^-1 f(0)| / mu^2, the norm a sweep records as grad_inv_f.
    def test_linear_in_amplitude(self):
        d = Domain(N1=16, N2=16)
        doubled = ForcingSpec(tuple((m1, m2, 2.0 * a) for m1, m2, a in BENCHMARK.modes))
        g1 = sobolev_norm(Forcing(BENCHMARK, d)(0.0), -1.0)
        g2 = sobolev_norm(Forcing(doubled, d)(0.0), -1.0)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-13)

    def test_matches_closed_form_on_a_rectangle(self):
        want = np.sqrt(closed_form_sums(RECTANGLE_SPEC, RECTANGLE, lambda ksq, m1: 1.0 / ksq))
        got = sobolev_norm(Forcing(RECTANGLE_SPEC, RECTANGLE)(0.0), -1.0)
        assert got == pytest.approx(want, rel=1e-13)

