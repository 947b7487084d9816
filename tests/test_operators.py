"""Operator identities, the advection kernels and the triad coefficients."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zns.lattice
from zns.diagnostics import sobolev_norm
from zns.lattice import (
    Domain,
    OddBand,
    SpectralField,
    inner,
    norm,
    parity_error,
    random_field,
    reality_error,
    to_grid,
)
from zns.operators import (
    _advect_raw,
    _BandKernel,
    _grid,
    _spec,
    _zonal_triad,
    apply_A,
    apply_I_omega,
    apply_L,
    apply_inv_laplacian,
    b_coeff,
    jacobian,
    omega_freq,
    split,
    triad_scan,
    velocity,
)
from zns.stepper import SimConfig, Stepper

from conftest import KERNEL_DOMAINS, TRANSFORM_DOMAINS, triad_sum_oracle, zero_forcing


class TestOmegaFreq:
    def test_values(self):
        d = Domain()
        assert omega_freq((1, 0), d) == -1.0
        assert omega_freq((0, 3), d) == 0.0
        assert omega_freq((2, 1), d) == pytest.approx(-0.4)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            omega_freq((0, 0), Domain())


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
        # Per mode: i k1 u + i k2 v = 0 and i k1 v - i k2 u = w.
        w = random_field(domain, rng, norm_target=1.0)
        vel = velocity(w)
        kx, ky = domain.kx, domain.ky
        div = SpectralField(domain, 1j * kx * vel.u.coeffs + 1j * ky * vel.v.coeffs)
        curl = SpectralField(domain, 1j * kx * vel.v.coeffs - 1j * ky * vel.u.coeffs)
        assert norm(div) < 1e-14
        assert norm(curl - w) < 1e-13

    def test_v_vanishes_on_symmetry_lines(self, rng):
        d = Domain(N1=16, N2=16)
        w = random_field(d, rng, norm_target=1.0)
        vg = to_grid(velocity(w).v)
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
        # The half-width mode is gone: half-width input is refused, and the
        # full output is what its half used to be computed from.
        half = np.s_[:, : d.N1 // 2 + 1]
        for odd in (True, False):
            a = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            b = random_field(d, rng, norm_target=1.0, odd_in_y=odd)
            with pytest.raises(ValueError, match="neither full nor the band block"):
                _advect_raw(d, a.coeffs[half], b.coeffs[half])
            assert _advect_raw(d, a.coeffs, b.coeffs).shape == (d.N2, d.N1)

    def test_signature_and_full_width_output(self, rng):
        assert list(inspect.signature(_advect_raw).parameters) == ["d", "A", "B", "kernel", "keep"]
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


def band_blocks(d: Domain, *fields: SpectralField) -> list[np.ndarray]:
    return [OddBand.of(f).coeffs for f in fields]


def band_advect(d: Domain, a: SpectralField, b: SpectralField) -> np.ndarray:
    """The band kernel on the band blocks of ``a`` and ``b``, a kernel of its own."""
    return _advect_raw(d, *band_blocks(d, a, b), _BandKernel(d))


def expanded(d: Domain, block: np.ndarray) -> SpectralField:
    return OddBand(d, block).field


class TestOddKernel:
    """``_advect_raw`` on band blocks of odd fields: three transforms, exactly odd output."""

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_matches_five_transform_kernel(self, d, rng):
        half = np.s_[:, : d.N1 // 2 + 1]
        for _ in range(5):
            a = random_field(d, rng, norm_target=1.0)
            b = random_field(d, rng, norm_target=1.0)
            got = band_advect(d, a, b)
            assert got.shape == d._band_shape == (-(-d.N2 // 3) - 1, -(-d.N1 // 3))
            want = _advect_raw(d, a.coeffs, b.coeffs)[half]
            got = expanded(d, got).coeffs[half]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_output_is_exactly_odd_and_real(self, d, rng):
        a = random_field(d, rng, norm_target=1.0)
        b = random_field(d, rng, norm_target=1.0)
        out = expanded(d, band_advect(d, a, b))
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
            got = expanded(d, band_advect(d, a, b))
            oracle = triad_sum_oracle(a, b)
            assert norm(got - oracle) <= 1e-12 * norm(oracle)

    @pytest.mark.parametrize("d", TRANSFORM_DOMAINS)
    def test_odd_part_is_zero_beyond_the_kept_columns(self, d, rng):
        n2, (rows, keep) = d.N2 // 2, d._band_shape
        grid = rng.standard_normal((d.N2, d.N1))
        got = Stepper(d, SimConfig(0.1, 0.5), 0.01)._kernel.odd_part(grid)
        assert got.shape == (rows, keep)
        # The block is that of a 2-D transform of every column, and the 2/3 mask (times the
        # y-phase) is zero on all of the quarter outside it.
        F = np.fft.rfft2(grid, norm="forward")
        mask = 0.5 * d.dealias[1:n2, : d.N1 // 2 + 1] * (-1.0) ** d.m2[1:n2, None]
        want = (F[1:n2] - F[:n2:-1]) * mask
        want.real[:, 0] = 0.0
        assert np.array_equal(got, want[:rows, :keep])
        assert np.array_equal(mask[:rows, :keep], d._odd_advect_tables[2])
        assert np.all(want[rows:] == 0.0) and np.all(want[:, keep:] == 0.0)

    @pytest.mark.parametrize("stack", [1, 2])
    @pytest.mark.parametrize("d", TRANSFORM_DOMAINS)
    def test_passes_give_the_bits_of_the_lattice_transforms(self, d, stack, rng):
        # The kernel's own gufunc calls against _irfft2 of the zero-padded half it fills and
        # _rfft2 of each grid: one block for both halves (1), or two stacked (2).
        (r, keep), half = d._band_shape, d.N1 // 2 + 1
        kernel = _BandKernel(d)
        A, B = rng.standard_normal((2, r, keep)) + 1j * rng.standard_normal((2, r, keep))
        B = A if stack == 1 else B
        S = np.zeros((2, d.N2, half), np.complex128)
        for table, rows in zip(d._odd_advect_tables[:2], d._band_rows):
            S[:, rows, :keep] = table * (A if B is A else np.stack((A, B)))
        out = np.empty((2, d.N2, d.N1))
        assert kernel.grids(A, B, out) is out
        assert out.tobytes() == zns.lattice._irfft2(d, S).tobytes()
        for grid in (*out, rng.standard_normal((d.N2, d.N1))):
            F = zns.lattice._rfft2(d, grid)[:, :keep]
            up, down = (F[rows] for rows in d._band_rows)
            for minus, want in ((False, up - down), (True, down - up)):
                want *= d._odd_advect_tables[2]
                want.real[:, 0] = 0.0
                assert kernel.odd_part(grid, minus).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", KERNEL_DOMAINS)
    def test_scratch_carries_nothing_between_calls(self, d, rng):
        # The kernel with A != B (a stacked fill), then with A = B (one block for both
        # halves), then a step and a tangent step, all in one stepper's kernel: each result
        # is the same call's in a fresh stepper, and the spectrum stays zero outside the
        # band rows.
        def stepper():
            return Stepper(d, SimConfig(0.1, 0.5), 0.01)

        A, B = band_blocks(d, *(random_field(d, rng, norm_target=1.0) for _ in range(2)))
        calls = (lambda st: _advect_raw(d, A, B, st._kernel),
                 lambda st: _advect_raw(d, A, A, st._kernel),
                 lambda st: np.stack([x.coeffs for x in st.step_pair(
                     OddBand(d, A), OddBand(d, B), 0.0, zero_forcing(d))]))
        st = stepper()
        for call in calls:
            got, want = call(st), call(stepper())
            assert np.array_equal(got, want)
        r, k = d._band_shape
        assert not st._kernel.spectrum[:, [0, *range(r + 1, d.N2 - r)]].any()
        assert not st._kernel.ypass[..., k:].any()

    def test_three_transforms_per_call(self, monkeypatch, rng):
        from types import SimpleNamespace

        import zns.lattice

        # Each 1-D pass records its name and the number of 2-D transforms in its stack.
        calls, passes = [], {}
        for name in ("ifft", "irfft", "rfft_n_even", "fft"):
            fn = getattr(zns.lattice._pocketfft, name)
            passes[name] = lambda x, *a, fn=fn, name=name, **kw: (
                calls.append((name, x[..., 0, 0].size)) or fn(x, *a, **kw))
        monkeypatch.setattr(zns.lattice, "_pocketfft", SimpleNamespace(**passes))
        d = Domain(N1=16, N2=16)
        a = random_field(d, rng, norm_target=1.0)
        _advect_raw(d, *band_blocks(d, a, a), _BandKernel(d))
        assert calls == [("ifft", 2), ("irfft", 2), ("rfft_n_even", 1), ("fft", 1)]
        calls.clear()
        # Full input: one _grid per grid (four inverse transforms), then one _spec.
        _advect_raw(d, a.coeffs, a.coeffs)
        assert calls == [("ifft", 1), ("irfft", 1)] * 4 + [("rfft_n_even", 1), ("fft", 1)]


class TestTriadCoefficients:
    def test_analytic_formula_substitution(self):
        d = Domain()
        val = b_coeff((1, 0), (0, 1), (1, 1), d)
        assert val == pytest.approx(d.area)

    def test_parallel_wavevectors_vanish(self):
        d = Domain()
        assert b_coeff((1, 0), (2, 0), (3, 0), d) == 0.0

    def test_mismatched_triad_is_zero(self):
        d = Domain()
        assert b_coeff((1, 0), (0, 1), (2, 1), d) == 0.0

    def test_resonant_antisymmetry(self):
        d = Domain()
        j, k, l = (1, 1), (-1, 1), (0, 2)
        assert b_coeff(j, k, l, d) + b_coeff(k, j, l, d) == pytest.approx(0.0)
        assert omega_freq(j, d) + omega_freq(k, d) == 0.0

    def test_identity_residual_worked_examples(self):
        d = Domain()
        # Bjkl + Bkjl = |M|/2 balances -l2 (Omega_j + Omega_k) |M| = |M|/2.
        j, k, l = (1, 0), (-1, 1), (0, 1)
        assert b_coeff(j, k, l, d) == pytest.approx(d.area)
        assert b_coeff(k, j, l, d) == pytest.approx(-d.area / 2)
        assert _zonal_triad(j, k, l, d)[3] < 1e-13 * d.area
        # resonant case: both sides vanish
        j, k, l = (1, 1), (-1, 1), (0, 2)
        assert _zonal_triad(j, k, l, d)[3] < 1e-13 * d.area

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

    def test_scan_reports_equal_the_per_triad_functions(self):
        # The scan computes each triad's coefficients once; every report must
        # equal, bit for bit, what the public per-triad functions return, and
        # its residual the identity's defect built from them.
        d = Domain(L1=4 * np.pi, L2=2 * np.pi)
        reports = triad_scan(d, 5)
        assert reports
        for r in reports:
            assert r.bjkl == b_coeff(r.j, r.k, r.l, d)
            assert r.bkjl == b_coeff(r.k, r.j, r.l, d)
            assert r.omega_sum == omega_freq(r.j, d) + omega_freq(r.k, d)
            assert r.residual == abs(r.bjkl + r.bkjl + d.wavenumber(r.l)[1] * r.omega_sum * d.area)


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
    j, k, l = (j1, j2), (-j1, k2), (0, j2 + k2)
    assert _zonal_triad(j, k, l, d)[3] < 1e-12 * d.area


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
