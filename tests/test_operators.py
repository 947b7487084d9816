"""Operator identities, triad coefficients and the oscillatory triple product."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zns.diagnostics import sobolev_norm
from zns.lattice import (
    Domain,
    SpectralField,
    _odd_half,
    _unfold,
    inner,
    norm,
    parity_error,
    random_field,
    reality_error,
    to_grid,
)
from zns.operators import (
    _advect_raw,
    _grid,
    _spec,
    apply_A,
    apply_I_omega,
    apply_L,
    apply_inv_laplacian,
    b_coeff,
    b_omega_triple,
    curl,
    divergence,
    jacobian,
    omega_freq,
    omega_sum_is_zero,
    split,
    triad_identity_residual,
    triad_scan,
    velocity,
)

from conftest import KERNEL_DOMAINS, triad_sum_oracle


class TestOmegaFreq:
    def test_values(self):
        d = Domain()
        assert omega_freq(d.wavevector(1, 0)) == -1.0
        assert omega_freq(d.wavevector(0, 3)) == 0.0
        assert omega_freq(d.wavevector(2, 1)) == pytest.approx(-0.4)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            omega_freq(Domain().wavevector(0, 0))


class TestLinearOperators:
    def test_A_multiplies_by_ksq(self):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(1, 1): 1.0})
        assert apply_A(f).get_mode(1, 1) == 2.0

    def test_inverse_pair(self, domain, rng):
        f = random_field(domain, rng, norm_target=1.0)
        g = apply_A(apply_inv_laplacian(f))
        assert norm(g + f) < 1e-14

    def test_A_reproduces_gradient_norm(self, domain, rng):
        # (Af, f) computed against an independent Parseval evaluation.
        f = random_field(domain, rng, norm_target=1.0)
        direct = domain.area * float(
            np.sum(domain.ksq * np.abs(f.coeffs) ** 2)
        )
        assert inner(apply_A(f), f) == pytest.approx(direct, rel=1e-13)
        assert inner(apply_A(f), f) == pytest.approx(sobolev_norm(f, 1) ** 2, rel=1e-13)

    def test_L_single_mode_and_zonal(self):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(1, 0): 1.0})
        assert apply_L(f).get_mode(1, 0) == -1j
        zonal = SpectralField.from_modes(d, {(0, 1): 1j, (0, -1): -1j})
        assert norm(apply_L(zonal)) == 0.0

    def test_L_antisymmetry(self, domain, rng):
        for _ in range(20):
            f = random_field(domain, rng)
            assert abs(inner(apply_L(f), f)) < 1e-14 * norm(f) ** 2

    def test_I_omega_inverts_L_on_fast_part(self, domain, rng):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(1, 0): 1.0})
        assert apply_I_omega(f).get_mode(1, 0) == 1j
        zonal = SpectralField.from_modes(d, {(0, 2): 1j, (0, -2): -1j})
        assert norm(apply_I_omega(zonal)) == 0.0
        g = random_field(domain, rng, norm_target=1.0)
        _, fast = split(g)
        assert norm(apply_L(apply_I_omega(g)) - fast) < 1e-13

    def test_I_omega_antisymmetry(self, domain, rng):
        f = random_field(domain, rng)
        g = random_field(domain, rng)
        assert abs(inner(apply_I_omega(f), f)) < 1e-13 * norm(f) ** 2
        assert inner(apply_I_omega(f), g) == pytest.approx(
            -inner(f, apply_I_omega(g)), abs=1e-12
        )


class TestVelocity:
    def test_single_mode_hand_value(self):
        d = Domain(N1=8, N2=8)
        w = SpectralField.from_modes(d, {(0, 1): 1.0})
        vel = velocity(w)
        assert vel.u.get_mode(0, 1) == 1j
        assert norm(vel.v) == 0.0

    def test_zonal_vorticity_gives_zero_v(self, rng):
        d = Domain(N1=16, N2=16)
        w, _ = split(random_field(d, rng))
        assert norm(velocity(w).v) == 0.0

    def test_divergence_free_and_curl_inverse(self, domain, rng):
        w = random_field(domain, rng, norm_target=1.0)
        vel = velocity(w)
        assert norm(divergence(vel)) < 1e-14
        assert norm(curl(vel) - w) < 1e-13

    def test_v_vanishes_on_symmetry_lines(self, rng):
        d = Domain(N1=16, N2=16)
        w = random_field(d, rng, norm_target=1.0)
        vg = to_grid(velocity(w).v).values
        assert np.max(np.abs(vg[0, :])) < 1e-12       # y = -L2/2
        assert np.max(np.abs(vg[d.N2 // 2, :])) < 1e-12  # y = 0


class TestJacobian:
    def test_zonal_zonal_vanishes_exactly(self, rng):
        d = Domain(N1=16, N2=16)
        a, _ = split(random_field(d, rng))
        b, _ = split(random_field(d, rng))
        assert np.all(jacobian(a, b).coeffs == 0.0)

    def test_energy_identity(self, domain32, rng):
        for _ in range(20):
            a = random_field(domain32, rng, kmax=domain32.N1 / 4, norm_target=1.0)
            b = random_field(domain32, rng, kmax=domain32.N1 / 4, norm_target=1.0)
            j = jacobian(a, b)
            assert abs(inner(j, b)) < 1e-12 * norm(j) * norm(b)

    def test_matches_triad_sum_on_small_support(self, rng):
        d = Domain(N1=16, N2=16)
        a = random_field(d, rng, kmax=3.0, norm_target=1.0)
        b = random_field(d, rng, kmax=3.0, norm_target=1.0)
        j = jacobian(a, b)
        oracle = triad_sum_oracle(a, b)
        assert norm(j - oracle) < 1e-12 * norm(oracle)

    def test_four_mode_field_matches_oracle(self):
        d = Domain(N1=16, N2=16)
        a = SpectralField.from_modes(
            d,
            {
                (1, 1): 0.4 - 0.2j, (1, -1): -(0.4 - 0.2j),
                (-1, -1): 0.4 + 0.2j, (-1, 1): -(0.4 + 0.2j),
            },
        )
        b = SpectralField.from_modes(
            d,
            {
                (2, 1): 0.1 + 0.3j, (2, -1): -(0.1 + 0.3j),
                (-2, -1): 0.1 - 0.3j, (-2, 1): -(0.1 - 0.3j),
            },
        )
        j = jacobian(a, b)
        oracle = triad_sum_oracle(a, b)
        assert norm(j - oracle) < 1e-12 * max(norm(oracle), 1e-30)

    def test_output_parity(self, domain, rng):
        from zns.lattice import parity_error

        a = random_field(domain, rng, kmax=4.0, norm_target=1.0)
        b = random_field(domain, rng, kmax=4.0, norm_target=1.0)
        assert parity_error(jacobian(a, b)) < 1e-13

    def test_domain_mismatch_rejected(self, rng):
        a = random_field(Domain(N1=8, N2=8), rng)
        b = random_field(Domain(N1=16, N2=16), rng)
        with pytest.raises(ValueError):
            jacobian(a, b)

    def test_matches_triad_sum_on_rectangle(self, rng):
        d = Domain(L1=4 * np.pi, L2=2 * np.pi, N1=24, N2=16)
        a = random_field(d, rng, kmax=3.0, norm_target=1.0)
        b = random_field(d, rng, kmax=3.0, norm_target=1.0)
        j = jacobian(a, b)
        oracle = triad_sum_oracle(a, b)
        assert norm(j - oracle) < 1e-12 * norm(oracle)
        assert abs(inner(j, b)) < 1e-12 * norm(j) * norm(b)


def complex_advect(d: Domain, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference kernel on full-width complex transforms (the pre-rfft2 kernel)."""

    def grid(C):
        return ((d.N1 * d.N2) * np.fft.ifft2(C * d._yphase)).real

    def spec(V):
        out = np.fft.fft2(V) * (d._yphase / (d.N1 * d.N2))
        out[d.nyquist] = 0.0
        return out

    ug = grid(1j * d.ky * d.inv_ksq * A)
    vg = grid(-1j * d.kx * d.inv_ksq * A)
    out = spec(ug * grid(1j * d.kx * B) + vg * grid(1j * d.ky * B))
    out *= d.dealias
    out[0, 0] = 0.0
    return out


def phased_advect(d: Domain, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Reference kernel that applies the y-phase in every transform (``_grid``/``_spec``)."""
    ug = _grid(d, 1j * d.ky * d.inv_ksq * A)
    vg = _grid(d, -1j * d.kx * d.inv_ksq * A)
    out = _spec(d, ug * _grid(d, 1j * d.kx * B) + vg * _grid(d, 1j * d.ky * B))
    out *= d.dealias
    out[0, 0] = 0.0
    return out


class TestRealTransformKernel:
    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    @pytest.mark.parametrize("odd", [True, False], ids=["odd", "not-odd"])
    def test_matches_complex_kernel(self, d, odd, rng):
        for _ in range(5):
            a = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            b = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            got = _advect_raw(d, a.coeffs, b.coeffs)
            want = complex_advect(d, a.coeffs, b.coeffs)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_phase_folded_into_tables_is_bit_identical(self, d, rng):
        for odd in (True, False):
            a = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            b = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            assert np.array_equal(_advect_raw(d, a.coeffs, b.coeffs),
                                  phased_advect(d, a.coeffs, b.coeffs))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_half_width_input_gives_the_half_of_the_full_output(self, d, rng):
        half = np.s_[:, : d.N1 // 2 + 1]
        for odd in (True, False):
            a = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            b = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            got = _advect_raw(d, a.coeffs[half], b.coeffs[half])
            assert got.shape == (d.N2, d.N1 // 2 + 1)
            assert np.array_equal(got, _advect_raw(d, a.coeffs, b.coeffs)[half])

    def test_signature_and_full_width_output(self, rng):
        assert list(inspect.signature(_advect_raw).parameters) == ["d", "A", "B"]
        d = Domain(N1=16, N2=8)
        a = random_field(d, rng, norm_target=1.0)
        out = _advect_raw(d, a.coeffs, a.coeffs)
        assert out.shape == (8, 16) and out.dtype == np.complex128
        assert reality_error(SpectralField(d, out)) == 0.0

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_spec_output_is_exactly_hermitian(self, d, rng):
        n1, n2 = d.N1 // 2, d.N2 // 2
        out = _spec(d, rng.standard_normal((d.N2, d.N1)))
        # m1 < 0 columns are the conjugate mirror of the m1 > 0 columns
        mirror = np.conj(out[np.ix_(d._flip_m2, d._flip_m1)])
        assert np.array_equal(out[:, n1 + 1 :], mirror[:, n1 + 1 :])
        assert reality_error(SpectralField(d, out)) == 0.0
        # Nyquist row and column are zero
        assert np.all(out[n2, :] == 0.0) and np.all(out[:, n1] == 0.0)

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_advection_output_structure(self, d, rng):
        a = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        b = random_field(d, rng, norm_target=1.0, odd_in_y=False)
        out = _advect_raw(d, a.coeffs, b.coeffs)
        assert reality_error(SpectralField(d, out)) == 0.0
        assert np.all(out[d.nyquist] == 0.0)
        assert out[0, 0] == 0.0

    def test_reads_only_the_nonnegative_m1_half(self, rng):
        d = Domain(N1=16, N2=16)
        a = random_field(d, rng, norm_target=1.0)
        b = random_field(d, rng, norm_target=1.0)
        want = _advect_raw(d, a.coeffs, b.coeffs)
        # columns N1/2 + 1, ..., N1 - 1 hold m1 = -N1/2 + 1, ..., -1
        a.coeffs[:, d.N1 // 2 + 1 :] = np.nan
        b.coeffs[:, d.N1 // 2 + 1 :] = np.nan
        assert np.array_equal(_advect_raw(d, a.coeffs, b.coeffs), want)


def odd_quarters(d: Domain, *fields: SpectralField) -> list[np.ndarray]:
    quarter = np.s_[1 : d.N2 // 2, : d.N1 // 2 + 1]
    return [f.coeffs[quarter] for f in fields]


class TestOddKernel:
    """``_advect_raw`` on m2 > 0 quarters: three transforms, exactly odd output."""

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_matches_five_transform_kernel(self, d, rng):
        half = np.s_[:, : d.N1 // 2 + 1]
        for _ in range(5):
            a = random_field(d, rng, norm_target=1.0)
            b = random_field(d, rng, norm_target=1.0)
            got = _advect_raw(d, *odd_quarters(d, a, b))
            assert got.shape == (d.N2 // 2 - 1, d.N1 // 2 + 1)
            want = _advect_raw(d, a.coeffs[half], b.coeffs[half])
            assert np.max(np.abs(_odd_half(d, got) - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_output_is_exactly_odd_and_real(self, d, rng):
        a = random_field(d, rng, norm_target=1.0)
        b = random_field(d, rng, norm_target=1.0)
        out = SpectralField(d, _unfold(d, _odd_half(d, _advect_raw(d, *odd_quarters(d, a, b)))))
        assert parity_error(out) == 0.0
        assert reality_error(out) == 0.0
        assert np.all(out.coeffs[~d.dealias] == 0.0)

    @pytest.mark.parametrize("d", [Domain(N1=32, N2=32), Domain(L1=4 * np.pi, N1=24, N2=16)],
                             ids=["32x32", "24x16-L1=4pi"])
    def test_matches_triad_sum_oracle(self, d, rng):
        # Criterion 3's support and tolerance.
        for _ in range(2):
            a = random_field(d, rng, kmax=5.0, norm_target=1.0)
            b = random_field(d, rng, kmax=5.0, norm_target=1.0)
            got = SpectralField(d, _unfold(d, _odd_half(d, _advect_raw(d, *odd_quarters(d, a, b)))))
            oracle = triad_sum_oracle(a, b)
            assert norm(got - oracle) <= 1e-12 * norm(oracle)

    def test_three_transforms_per_call(self, monkeypatch, rng):
        import zns.operators

        calls = []
        for name in ("_irfft2", "_rfft2"):
            fn = getattr(zns.operators, name)
            monkeypatch.setattr(zns.operators, name,
                                lambda d, x, fn=fn, name=name: calls.append(name) or fn(d, x))
        d = Domain(N1=16, N2=16)
        a = random_field(d, rng, norm_target=1.0)
        _advect_raw(d, *odd_quarters(d, a, a))
        assert calls == ["_irfft2", "_irfft2", "_rfft2"]
        calls.clear()
        _advect_raw(d, a.coeffs, a.coeffs)
        assert len(calls) == 5


class TestTriadCoefficients:
    def test_analytic_formula_substitution(self):
        d = Domain()
        val = b_coeff(d.wavevector(1, 0), d.wavevector(0, 1), d.wavevector(1, 1), d)
        assert val == pytest.approx(d.area)

    def test_parallel_wavevectors_vanish(self):
        d = Domain()
        assert b_coeff(d.wavevector(1, 0), d.wavevector(2, 0), d.wavevector(3, 0), d) == 0.0

    def test_mismatched_triad_is_zero(self):
        d = Domain()
        assert b_coeff(d.wavevector(1, 0), d.wavevector(0, 1), d.wavevector(2, 1), d) == 0.0

    def test_resonant_antisymmetry(self):
        d = Domain()
        j, k, l = d.wavevector(1, 1), d.wavevector(-1, 1), d.wavevector(0, 2)
        assert b_coeff(j, k, l, d) + b_coeff(k, j, l, d) == pytest.approx(0.0)
        assert omega_freq(j) + omega_freq(k) == 0.0
        assert omega_sum_is_zero(j, k, d)

    def test_identity_residual_worked_examples(self):
        d = Domain()
        # Bjkl + Bkjl = |M|/2 balances -l2 (Omega_j + Omega_k) |M| = |M|/2.
        j, k, l = d.wavevector(1, 0), d.wavevector(-1, 1), d.wavevector(0, 1)
        assert b_coeff(j, k, l, d) == pytest.approx(d.area)
        assert b_coeff(k, j, l, d) == pytest.approx(-d.area / 2)
        assert triad_identity_residual(j, k, l, d) < 1e-13 * d.area
        # resonant case: both sides vanish
        j, k, l = d.wavevector(1, 1), d.wavevector(-1, 1), d.wavevector(0, 2)
        assert triad_identity_residual(j, k, l, d) < 1e-13 * d.area

    def test_identity_residual_preconditions(self):
        d = Domain()
        with pytest.raises(ValueError):
            triad_identity_residual(
                d.wavevector(1, 0), d.wavevector(0, 1), d.wavevector(1, 1), d
            )
        with pytest.raises(ValueError):
            triad_identity_residual(
                d.wavevector(1, 0), d.wavevector(-1, 1), d.wavevector(0, 2), d
            )

    def test_small_exhaustive_scan(self):
        d = Domain()
        reports = triad_scan(d, 6)
        assert reports  # nonempty
        assert max(r.residual for r in reports) < 1e-12 * d.area
        assert any(r.resonant for r in reports)
        # classification: resonant iff |j2| == |k2|
        for r in reports[::7]:
            assert r.resonant == (abs(r.j[1]) == abs(r.k[1]))

    def test_scan_works_off_square_domains(self):
        d = Domain(L1=4 * np.pi, L2=2 * np.pi, N1=16, N2=16)
        reports = triad_scan(d, 4)
        assert max(r.residual for r in reports) < 1e-12 * d.area


@given(
    j1=st.integers(-6, 6), j2=st.integers(-6, 6), k2=st.integers(-6, 6)
)
@settings(max_examples=200, deadline=None)
def test_triad_identity_residual_property(j1, j2, k2):
    if j1 == 0 and j2 == 0:
        return
    if j1 == 0 and k2 == 0:
        return
    d = Domain()
    j = d.wavevector(j1, j2)
    k = d.wavevector(-j1, k2)
    l = d.wavevector(0, j2 + k2)
    assert triad_identity_residual(j, k, l, d) < 1e-12 * d.area


class TestSplit:
    def test_zonal_only_field(self, rng):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(0, 1): 1j, (0, -1): -1j})
        zonal, fast = split(f)
        assert norm(fast) == 0.0
        assert norm(zonal - f) == 0.0

    def test_mode_placement(self):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(0, 1): 1j, (1, 1): 1.0})
        zonal, fast = split(f)
        assert zonal.get_mode(0, 1) == 1j and zonal.get_mode(1, 1) == 0.0
        assert fast.get_mode(1, 1) == 1.0 and fast.get_mode(0, 1) == 0.0

    def test_orthogonal_decomposition(self, domain, rng):
        for _ in range(20):
            f = random_field(domain, rng, norm_target=1.0)
            zonal, fast = split(f)
            assert norm(zonal + fast - f) == 0.0
            total = norm(f) ** 2
            assert abs(norm(zonal) ** 2 + norm(fast) ** 2 - total) < 1e-13 * total
            assert abs(inner(zonal, fast)) < 1e-14


class TestBOmegaTriple:
    @staticmethod
    def _oracle(a, b, c, t, eps):
        d = a.domain
        half2 = d.N2 // 2
        total = 0.0 + 0.0j
        modes = [(int(m1), int(m2)) for m2 in d.m2 for m1 in d.m1]
        for j1, j2 in modes:
            aj = a.coeffs[j2 % d.N2, j1 % d.N1]
            if aj == 0 or j1 == 0:
                continue
            for k1, k2 in modes:
                bk = b.coeffs[k2 % d.N2, k1 % d.N1]
                if bk == 0 or k1 == 0 or j1 + k1 != 0:
                    continue
                l2 = j2 + k2
                if l2 == 0 or abs(l2) > half2 - 1:
                    continue
                cl = c.coeffs[l2 % d.N2, 0]
                if cl == 0 or j2 * j2 == k2 * k2:
                    continue
                oj = omega_freq(d.wavevector(j1, j2))
                ok = omega_freq(d.wavevector(k1, k2))
                phase = np.exp(-1j * (oj + ok) * t / eps)
                total += (2 * np.pi * l2 / d.L2) * aj * bk * np.conj(cl) * phase
        return float((d.area / 2j * total).real)

    def test_resonant_triads_excluded(self):
        d = Domain(N1=16, N2=16)
        a = SpectralField.from_modes(d, {(1, 1): 1.0, (-1, -1): 1.0})
        c = SpectralField.from_modes(d, {(0, 2): 1j, (0, -2): -1j})
        assert b_omega_triple(a, a, c, 0.0, 0.1) == 0.0

    def test_single_triad_hand_value(self):
        d = Domain(N1=16, N2=16)
        av, bv, cv = 0.3 + 0.7j, -0.2 + 0.5j, 0.9 - 0.1j
        a = SpectralField.from_modes(d, {(1, 0): av, (-1, 0): np.conj(av)})
        b = SpectralField.from_modes(d, {(-1, 1): bv, (1, -1): np.conj(bv)})
        c = SpectralField.from_modes(d, {(0, 1): cv, (0, -1): np.conj(cv)})
        got = b_omega_triple(a, b, c, 0.0, 0.1)
        assert got == pytest.approx(d.area * (av * bv * np.conj(cv)).imag)

    def test_matches_brute_force_oracle(self, rng):
        d = Domain(N1=16, N2=16)
        a = random_field(d, rng, kmax=4.0, norm_target=1.0)
        b = random_field(d, rng, kmax=4.0, norm_target=1.0)
        c, _ = split(random_field(d, rng, kmax=4.0, norm_target=1.0))
        for t in (0.0, 0.37, 2.1):
            got = b_omega_triple(a, b, c, t, 0.05)
            want = self._oracle(a, b, c, t, 0.05)
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_in_first_two_arguments(self, rng):
        d = Domain(N1=16, N2=16)
        a = random_field(d, rng, kmax=4.0)
        b = random_field(d, rng, kmax=4.0)
        c, _ = split(random_field(d, rng, kmax=4.0))
        assert b_omega_triple(a, b, c, 0.3, 0.2) == pytest.approx(
            b_omega_triple(b, a, c, 0.3, 0.2)
        )

    def test_rejects_non_zonal_third_argument(self, rng):
        d = Domain(N1=16, N2=16)
        f = random_field(d, rng, kmax=4.0)
        with pytest.raises(ValueError):
            b_omega_triple(f, f, f, 0.0, 0.1)
        with pytest.raises(ValueError):
            c, _ = split(f)
            b_omega_triple(f, f, c, 0.0, -0.1)


def test_resonance_test_is_exact_on_rectangles():
    # On L1 = 2 L2 the frequencies differ but zonal-target resonance is
    # still exactly |j2| == |k2|.
    d = Domain(L1=4 * np.pi, L2=2 * np.pi, N1=16, N2=16)
    j = d.wavevector(1, 2)
    k = d.wavevector(-1, -2)
    assert omega_sum_is_zero(j, k, d)
    k2 = d.wavevector(-1, 1)
    assert not omega_sum_is_zero(j, k2, d)
