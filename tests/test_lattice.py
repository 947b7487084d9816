"""Lattice, transforms, symmetry projections, dealiasing and snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zns.lattice
from zns.lattice import (
    Domain,
    SpectralField,
    WaveVector,
    dealias_mask,
    enumerate_modes,
    inner,
    norm,
    parity_error,
    project_parity,
    random_field,
    read_snapshot,
    reality_error,
    to_grid,
    to_spectral,
    write_snapshot,
)

TWO_PI = 2.0 * np.pi


class TestDomain:
    def test_rejects_odd_or_tiny_mode_counts(self):
        with pytest.raises(ValueError):
            Domain(N1=5, N2=8)
        with pytest.raises(ValueError):
            Domain(N1=8, N2=2)
        with pytest.raises(ValueError):
            Domain(L1=-1.0)

    def test_c0_is_min_nonzero_wavenumber(self):
        assert Domain().c0 == 1.0
        assert Domain(L1=4 * np.pi).c0 == pytest.approx(0.5)

    @pytest.mark.parametrize("name", [
        "m1", "m2", "kx", "ky", "ksq", "inv_ksq", "omega", "nyquist", "active", "dealias",
        "_yphase", "_flip_m2", "_flip_m1", "_advect_mask", "_half_weight",
    ])
    def test_cached_arrays_are_read_only(self, name):
        arr = getattr(Domain(N1=8, N2=8), name)
        with pytest.raises(ValueError):
            arr[0] = arr[0]

    def test_advection_tables_are_read_only_halves(self):
        d = Domain(N1=8, N2=6)
        assert len(d._advect_tables) == 4
        for table in d._advect_tables:
            assert table.shape == (6, 5)
            with pytest.raises(ValueError):
                table *= 2.0
        assert d._advect_tables is d._advect_tables  # built once per domain

    def test_advection_tables_carry_the_y_phase(self):
        d = Domain(L1=4 * np.pi, N1=8, N2=6)
        half, phase = np.s_[:, :5], d._yphase
        unphased = (1j * d.ky * d.inv_ksq, -1j * d.kx * d.inv_ksq, 1j * d.kx, 1j * d.ky)
        for table, want in zip(d._advect_tables, unphased):
            assert np.array_equal(table, want[half] * phase)
        mask = d.dealias[half] * phase
        mask[0, 0] = 0.0
        assert d._advect_mask.shape == (6, 5)
        assert np.array_equal(d._advect_mask, mask)
        assert d._advect_mask is d._advect_mask

    def test_odd_advection_tables(self):
        d = Domain(L1=4 * np.pi, N1=8, N2=6)
        to_u, to_v, to_dx, to_dy = d._advect_tables
        sign = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])[:, None]  # m2 = 0, 1, 2, -3, -2, -1
        to_uv, to_dxy, mask = d._odd_advect_tables
        assert np.array_equal(to_uv, sign * (to_u + to_v))
        assert np.array_equal(to_dxy, sign * (to_dx + to_dy))
        assert np.array_equal(mask, 0.5 * d._advect_mask[1:3])
        for table in d._odd_advect_tables:
            with pytest.raises(ValueError):
                table *= 2.0
        assert d._odd_advect_tables is d._odd_advect_tables

    def test_indices_roundtrip(self):
        d = Domain(L1=4 * np.pi, N1=8, N2=8)
        assert d.indices(d.wavevector(3, -2)) == (3, -2)
        with pytest.raises(ValueError):
            d.indices(WaveVector(0.3, 0.0))


class TestEnumerateModes:
    def test_4x4_lists_all_16_lattice_points(self):
        modes = enumerate_modes(Domain(N1=4, N2=4))
        assert len(modes) == 16
        comps = {(round(m.k1), round(m.k2)) for m in modes}
        assert comps == {(a, b) for a in range(-2, 2) for b in range(-2, 2)}

    def test_disk_count_matches_brute_force(self):
        # Independent oracle: count integer points with |m| <= 2 directly.
        expected = sum(
            1
            for a in range(-3, 4)
            for b in range(-3, 4)
            if a * a + b * b <= 4
        )
        modes = enumerate_modes(Domain(N1=8, N2=8))
        got = sum(1 for m in modes if m.norm_sq <= 4.0 + 1e-12)
        assert got == expected == 13

    def test_rectangular_domain_wavenumbers(self):
        modes = enumerate_modes(Domain(L1=4 * np.pi, L2=TWO_PI, N1=4, N2=4))
        for m in modes:
            assert (m.k1 / 0.5) == pytest.approx(round(m.k1 / 0.5))

    def test_order_is_k2_major_and_stable(self):
        d = Domain(N1=4, N2=4)
        modes = enumerate_modes(d)
        # k2 constant along each row of 4 consecutive entries
        for row in range(4):
            k2s = {modes[4 * row + i].k2 for i in range(4)}
            assert len(k2s) == 1
        assert [(m.k1, m.k2) for m in modes] == [
            (m.k1, m.k2) for m in enumerate_modes(Domain(N1=4, N2=4))
        ]


class TestTransforms:
    def test_single_mode_is_cosine(self):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(1, 0): 0.5, (-1, 0): 0.5})
        g = to_grid(f)
        x = d.grid_x()
        assert np.allclose(g.values, np.cos(x)[None, :], atol=1e-14)
        back = to_spectral(g)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-15

    def test_zero_field_gives_zero_grid(self):
        d = Domain(N1=8, N2=8)
        assert np.all(to_grid(SpectralField.zeros(d)).values == 0.0)

    def test_grid_row_zero_sits_at_minus_half_period(self):
        # sin(y) at y = -pi, ..., pi - dy; row 0 must be sin(-pi) = 0 etc.
        d = Domain(N1=4, N2=8)
        f = SpectralField.from_modes(d, {(0, 1): -0.5j, (0, -1): 0.5j})
        g = to_grid(f)
        assert np.allclose(g.values, np.sin(d.grid_y())[:, None], atol=1e-14)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_roundtrip_and_parseval_ensemble(self, n):
        d = Domain(N1=n, N2=n)
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        for _ in range(1000):
            f = random_field(d, rng, norm_target=1.0)
            g = to_grid(f)
            back = to_spectral(g)
            err = norm(back - f) / norm(f)
            assert err < 10 * eps
            # Parseval under the continuum-coefficient normalization:
            # grid mean square == sum |c_k|^2, i.e. |f|^2 == |M| * sum.
            mean_sq = float(np.mean(g.values**2))
            coeff_sq = float(np.sum(np.abs(f.coeffs) ** 2))
            assert abs(mean_sq - coeff_sq) < 1e-12 * coeff_sq

    def test_roundtrip_on_asymmetric_rectangle(self):
        d = Domain(L1=4 * np.pi, L2=2 * np.pi, N1=32, N2=16)
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_field(d, rng, norm_target=1.0)
            back = to_spectral(to_grid(f))
            assert norm(back - f) < 10 * np.finfo(float).eps
            mean_sq = float(np.mean(to_grid(f).values ** 2))
            assert mean_sq == pytest.approx(float(np.sum(np.abs(f.coeffs) ** 2)), rel=1e-12)

    def test_direct_evaluation_oracle(self):
        # Evaluate the Fourier sum longhand at every grid point.
        d = Domain(N1=8, N2=8)
        f = random_field(d, np.random.default_rng(1), norm_target=1.0)
        x, y = d.grid_x(), d.grid_y()
        direct = np.zeros((d.N2, d.N1), dtype=complex)
        for i2, m2 in enumerate(d.m2):
            for i1, m1 in enumerate(d.m1):
                c = f.coeffs[i2, i1]
                if c != 0:
                    direct += c * np.exp(1j * (m1 * x)[None, :] + 1j * (m2 * y)[:, None])
        assert np.max(np.abs(direct.imag)) < 1e-13
        assert np.allclose(to_grid(f).values, direct.real, atol=1e-12)


class TestParityProjection:
    def test_already_odd_unchanged(self):
        d = Domain(N1=8, N2=8)
        a = 0.3 + 0.4j
        f = SpectralField.from_modes(
            d, {(0, 1): 1j * a.real, (0, -1): -1j * a.real}
        )
        p = project_parity(f)
        assert np.max(np.abs(p.coeffs - f.coeffs)) == 0.0

    def test_even_part_annihilated(self):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(0, 1): 1.0, (0, -1): 1.0})
        assert norm(project_parity(f)) == 0.0

    def test_projection_properties_on_random_fields(self, rng):
        d = Domain(N1=16, N2=16)
        for _ in range(50):
            f = random_field(d, rng, odd_in_y=False)
            p = project_parity(f)
            assert parity_error(p) == 0.0
            again = project_parity(p)
            assert np.max(np.abs(again.coeffs - p.coeffs)) == 0.0
            assert norm(p) <= norm(f) * (1 + 1e-15)
            # residual f - p is even in y on the grid
            res = to_grid(f - p).values
            flipped = res[(-np.arange(d.N2)) % d.N2, :]
            assert np.max(np.abs(res - flipped)) < 1e-12

    def test_odd_field_grid_antisymmetry(self, rng):
        d = Domain(N1=16, N2=16)
        f = random_field(d, rng, norm_target=1.0)
        g = to_grid(f).values
        flipped = g[(-np.arange(d.N2)) % d.N2, :]
        assert np.max(np.abs(g + flipped)) < 1e-12
        # boundary lines y = -L2/2 and y = 0 vanish for odd fields
        assert np.max(np.abs(g[0, :])) < 1e-13
        assert np.max(np.abs(g[d.N2 // 2, :])) < 1e-13


class TestDealias:
    def test_strict_third_rule_indices(self):
        d = Domain(N1=12, N2=12)
        kept = sorted(int(m) for m in d.m1[dealias_mask(d)[0, :]])
        assert kept == list(range(-3, 4))
        d8 = Domain(N1=8, N2=8)
        kept8 = sorted(int(m) for m in d8.m1[dealias_mask(d8)[0, :]])
        assert kept8 == list(range(-2, 3))

    def test_product_mode_against_convolution_oracle(self):
        # cos(x) * cos(2x) = (cos x + cos 3x)/2: the (3,0) mode survives the
        # strict mask at N = 12 (|3| < 4) and is cut at N = 8 (|3| >= 8/3).
        for n, expect_present in ((12, True), (8, False)):
            d = Domain(N1=n, N2=n)
            a = SpectralField.from_modes(d, {(1, 0): 0.5, (-1, 0): 0.5})
            b = SpectralField.from_modes(d, {(2, 0): 0.5, (-2, 0): 0.5})
            prod = to_spectral(
                type(to_grid(a))(d, to_grid(a).values * to_grid(b).values)
            )
            prod.coeffs *= dealias_mask(d)
            mode = prod.get_mode(3, 0)
            if expect_present:
                assert mode == pytest.approx(0.25)
            else:
                assert mode == 0.0


class TestSnapshots:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        d = Domain(N1=16, N2=8)
        f = random_field(d, rng, norm_target=2.0)
        path = tmp_path / "state.zns"
        write_snapshot(path, f, epsilon=0.05, mu=0.5, t=12.25)
        g, eps, mu, t = read_snapshot(path)
        assert (eps, mu, t) == (0.05, 0.5, 12.25)
        assert g.domain == d
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_layout_is_frozen(self, tmp_path):
        # Header followed by (re, im) pairs in k2-major storage order.
        d = Domain(N1=4, N2=4)
        f = SpectralField.from_modes(d, {(1, 1): 2.0 + 3.0j, (-1, -1): 2.0 - 3.0j})
        path = tmp_path / "tiny.zns"
        write_snapshot(path, f, epsilon=1.0, mu=0.0, t=0.0)
        raw = path.read_bytes()
        assert raw[:4] == b"ZNS1"
        header = 4 + 4 + 4 + 4 + 8 * 5
        body = np.frombuffer(raw[header:], dtype="<f8").reshape(16, 2)
        # mode (1,1) lives at flat index m2-row * N1 + m1-col = 1*4 + 1
        assert body[5, 0] == 2.0 and body[5, 1] == 3.0
        assert body[(-1 % 4) * 4 + (-1 % 4), 0] == 2.0

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, rng, monkeypatch):
        d = Domain(N1=8, N2=8)
        path = tmp_path / "state.zns"
        write_snapshot(path, random_field(d, rng), 0.1, 1.0, 0.0)
        before = path.read_bytes()

        class HalfWrites:
            """A file whose first write stores half its bytes, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(zns.lattice, "open", lambda *a, **k: HalfWrites(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="no space"):
            write_snapshot(path, random_field(d, rng), 0.1, 1.0, 1.0)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.zns"]

    def test_corrupt_files_rejected(self, tmp_path):
        p = tmp_path / "bad.zns"
        p.write_bytes(b"NOPE")
        with pytest.raises(ValueError):
            read_snapshot(p)
        d = Domain(N1=4, N2=4)
        write_snapshot(p, SpectralField.zeros(d), 1.0, 1.0, 0.0)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError):
            read_snapshot(p)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_random_fields_satisfy_invariants(seed):
    d = Domain(N1=16, N2=16)
    f = random_field(d, np.random.default_rng(seed))
    assert f.coeffs[0, 0] == 0.0
    assert np.all(f.coeffs[d.nyquist] == 0.0)
    assert reality_error(f) < 1e-15
    assert parity_error(f) < 1e-15
    assert abs(np.mean(to_grid(f).values)) < 1e-14


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_inner_product_matches_grid_quadrature(seed):
    d = Domain(N1=16, N2=16)
    rng = np.random.default_rng(seed)
    f = random_field(d, rng)
    g = random_field(d, rng)
    quad = np.mean(to_grid(f).values * to_grid(g).values) * d.area
    assert inner(f, g) == pytest.approx(quad, abs=1e-12)


class TestOddQuarter:
    """The m2 > 0 rows that fix the half of an odd-in-y field."""

    @pytest.mark.parametrize("n1,n2", [(16, 16), (6, 10), (8, 4)])
    def test_roundtrip_on_odd_fields(self, n1, n2):
        d = Domain(N1=n1, N2=n2)
        half = random_field(d, np.random.default_rng(5)).coeffs[:, : n1 // 2 + 1]
        quarter = zns.lattice._odd_quarter(d, half)
        assert quarter.shape == (n2 // 2 - 1, n1 // 2 + 1)
        assert np.array_equal(zns.lattice._odd_half(d, quarter), half)

    def test_anything_short_of_exactly_odd_is_refused(self):
        d = Domain(N1=16, N2=16)
        half = random_field(d, np.random.default_rng(6)).coeffs[:, :9]
        odd = zns.lattice._odd_quarter
        for row, col, value in [
            (3, 2, np.nextafter(half[3, 2].real, np.inf) + 1j * half[3, 2].imag),  # one ulp
            (13, 2, np.nan),
            (0, 1, 1e-300),        # m2 = 0 row
            (8, 1, 1e-300),        # Nyquist row
            (2, 0, half[2, 0] + 1e-300),  # real part on m1 = 0, though -m2 matches below
        ]:
            bad = half.copy()
            bad[row, col] = value
            if (row, col) == (2, 0):
                bad[14, 0] = -bad[2, 0]
            assert odd(d, bad) is None, (row, col)
        assert odd(d, half) is not None
