"""Lattice, transforms, symmetry projections, dealiasing and snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zns.lattice
from zns.lattice import (
    Domain,
    SpectralField,
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

from conftest import TRANSFORM_DOMAINS

TWO_PI = 2.0 * np.pi


class TestDomain:
    def test_rejects_odd_or_tiny_mode_counts(self):
        with pytest.raises(ValueError):
            Domain(N1=5, N2=8)
        with pytest.raises(ValueError):
            Domain(N1=8, N2=2)
        with pytest.raises(ValueError):
            Domain(L1=-1.0)

    def test_refuses_counts_numpy_cannot_index_before_any_array(self):
        # 16 * 2**29 * 2**29 = 2**62 bytes is indexable; 2**63 is one more than intp.max.
        assert Domain(N1=2**29, N2=2**29).N1 == 2**29  # no cached array is built
        for n1, n2, blamed in ((2**29, 2**30, "N2"), (2**30, 2**29, "N1"), (10**155, 10**155, "N1"),
                               (np.int64(2**32), np.int64(2**32), "N1")):
            with pytest.raises(ValueError, match=rf"^{blamed} must be small enough for numpy "
                                                 rf"to index the \(N2, N1\) complex array, got "):
                Domain(N1=n1, N2=n2)

    def test_c0_is_min_nonzero_wavenumber(self):
        assert Domain().c0 == 1.0
        assert Domain(L1=4 * np.pi).c0 == pytest.approx(0.5)

    @pytest.mark.parametrize("name", [
        "m1", "m2", "kx", "ky", "ksq", "inv_ksq", "omega", "nyquist", "dealias",
        "_yphase", "_flip_m2", "_flip_m1", "_half_weight", "_odd_advect_tables",
    ])
    def test_cached_arrays_are_read_only(self, name):
        value = getattr(Domain(N1=8, N2=8), name)
        for arr in value if isinstance(value, tuple) else (value,):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_advection_tables_are_read_only_halves(self):
        # The band kernel's tables on the m2 > 0 and m2 < 0 rows, and its mask:
        # R = ceil(6/3) - 1 = 1 row and K = ceil(8/3) = 3 columns.
        d = Domain(N1=8, N2=6)
        up, down, mask = d._odd_advect_tables
        assert up.shape == down.shape == (2, 1, 3) and mask.shape == (1, 3)
        for table in d._odd_advect_tables:
            with pytest.raises(ValueError):
                table *= 2.0
        assert d._odd_advect_tables is d._odd_advect_tables  # built once per domain

    def test_advection_tables_carry_the_y_phase(self):
        # Mode (1, +-1) of L1 = 4 pi: k = (1/2, +-1), |k|^2 = 5/4, (-1)^m2 = -1.  The first
        # table sums the velocity multipliers i k2/|k|^2 - i k1/|k|^2, the second the
        # derivative ones i k1 + i k2; both carry (-1)^m2 and are negated where m2 < 0.
        d = Domain(L1=4 * np.pi, N1=8, N2=10)
        up, down, mask = d._odd_advect_tables
        assert up[:, 0, 1] == pytest.approx([-(1j - 0.5j) / 1.25, -(0.5j + 1j)], abs=1e-15)
        assert down[:, 0, 1] == pytest.approx([(-1j - 0.5j) / 1.25, 0.5j - 1j], abs=1e-15)
        # Half the 2/3 mask times (-1)^m2, on rows m2 = 1, 2, 3.
        assert np.array_equal(mask, np.array([[-0.5] * 3, [0.5] * 3, [-0.5] * 3]))

    def test_odd_advection_tables(self):
        # The band block: m2 = 1..R with |m2| < N2/3 and m1 = 0..K-1 with |m1| < N1/3.
        d = Domain(L1=4 * np.pi, N1=8, N2=10)
        assert d._block == np.s_[1:4, :3]
        kx, ky, inv_ksq = d.kx[:, :5], d.ky[:, :5], d.inv_ksq[:, :5]
        phase = (-1.0) ** d.m2[:, None]
        sign = np.where(d.m2 < 0, -1.0, 1.0)[:, None]  # m2 = 0..4, -5..-1
        rows = [1, 2, 3], [9, 8, 7]  # m2 = 1, 2, 3 and m2 = -1, -2, -3
        sums = (sign * ((1j * ky * inv_ksq) * phase + (-1j * kx * inv_ksq) * phase),
                sign * ((1j * kx) * phase + (1j * ky) * phase))
        # Laid out by half: the stack of both sums on the m2 > 0 rows, then on the m2 < 0 rows.
        up, down, mask = d._odd_advect_tables
        for table, r in zip((up, down), rows):
            assert table.shape == (2, 3, 3)
            assert np.array_equal(table, np.stack([full[r, :3] for full in sums]))
        assert np.array_equal(mask, 0.5 * d.dealias[1:4, :3] * phase[1:4])


class TestTransforms:
    def test_single_mode_is_cosine(self):
        d = Domain(N1=8, N2=8)
        f = SpectralField.from_modes(d, {(1, 0): 0.5, (-1, 0): 0.5})
        g = to_grid(f)
        x = d.grid_x()
        assert np.allclose(g, np.cos(x)[None, :], atol=1e-14)
        back = to_spectral(d, g)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-15

    def test_zero_field_gives_zero_grid(self):
        d = Domain(N1=8, N2=8)
        assert np.all(to_grid(SpectralField.zeros(d)) == 0.0)

    def test_grid_row_zero_sits_at_minus_half_period(self):
        # sin(y) at y = -pi, ..., pi - dy; row 0 must be sin(-pi) = 0 etc.
        d = Domain(N1=4, N2=8)
        f = SpectralField.from_modes(d, {(0, 1): -0.5j, (0, -1): 0.5j})
        g = to_grid(f)
        assert np.allclose(g, np.sin(d.grid_y())[:, None], atol=1e-14)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_roundtrip_and_parseval_ensemble(self, n):
        d = Domain(N1=n, N2=n)
        rng = np.random.default_rng(n)
        eps = np.finfo(float).eps
        for _ in range(1000):
            f = random_field(d, rng, norm_target=1.0)
            g = to_grid(f)
            back = to_spectral(d, g)
            err = norm(back - f) / norm(f)
            assert err < 10 * eps
            # Parseval under the continuum-coefficient normalization:
            # grid mean square == sum |c_k|^2, i.e. |f|^2 == |M| * sum.
            mean_sq = float(np.mean(g**2))
            coeff_sq = float(np.sum(np.abs(f.coeffs) ** 2))
            assert abs(mean_sq - coeff_sq) < 1e-12 * coeff_sq

    def test_roundtrip_on_asymmetric_rectangle(self):
        d = Domain(L1=4 * np.pi, L2=2 * np.pi, N1=32, N2=16)
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_field(d, rng, norm_target=1.0)
            back = to_spectral(d, to_grid(f))
            assert norm(back - f) < 10 * np.finfo(float).eps
            mean_sq = float(np.mean(to_grid(f) ** 2))
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
        assert np.allclose(to_grid(f), direct.real, atol=1e-12)


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
            res = to_grid(f - p)
            flipped = res[(-np.arange(d.N2)) % d.N2, :]
            assert np.max(np.abs(res - flipped)) < 1e-12

    def test_odd_field_grid_antisymmetry(self, rng):
        d = Domain(N1=16, N2=16)
        f = random_field(d, rng, norm_target=1.0)
        g = to_grid(f)
        flipped = g[(-np.arange(d.N2)) % d.N2, :]
        assert np.max(np.abs(g + flipped)) < 1e-12
        # boundary lines y = -L2/2 and y = 0 vanish for odd fields
        assert np.max(np.abs(g[0, :])) < 1e-13
        assert np.max(np.abs(g[d.N2 // 2, :])) < 1e-13


class TestDealias:
    def test_strict_third_rule_indices(self):
        d = Domain(N1=12, N2=12)
        kept = sorted(int(m) for m in d.m1[d.dealias[0, :]])
        assert kept == list(range(-3, 4))
        d8 = Domain(N1=8, N2=8)
        kept8 = sorted(int(m) for m in d8.m1[d8.dealias[0, :]])
        assert kept8 == list(range(-2, 3))

    def test_product_mode_against_convolution_oracle(self):
        # cos(x) * cos(2x) = (cos x + cos 3x)/2: the (3,0) mode survives the
        # strict mask at N = 12 (|3| < 4) and is cut at N = 8 (|3| >= 8/3).
        for n, expect_present in ((12, True), (8, False)):
            d = Domain(N1=n, N2=n)
            a = SpectralField.from_modes(d, {(1, 0): 0.5, (-1, 0): 0.5})
            b = SpectralField.from_modes(d, {(2, 0): 0.5, (-2, 0): 0.5})
            prod = to_spectral(d, to_grid(a) * to_grid(b))
            prod.coeffs *= d.dealias
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

    def test_write_makes_the_directory(self, tmp_path, rng):
        f = random_field(Domain(N1=8, N2=8), rng)
        path = tmp_path / "new" / "nested" / "state.zns"
        write_snapshot(path, f, epsilon=0.05, mu=0.5, t=1.0)
        assert np.array_equal(read_snapshot(path)[0].coeffs, f.coeffs)
        assert [p.name for p in path.parent.iterdir()] == ["state.zns"]

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
    assert abs(np.mean(to_grid(f))) < 1e-14


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_inner_product_matches_grid_quadrature(seed):
    d = Domain(N1=16, N2=16)
    rng = np.random.default_rng(seed)
    f = random_field(d, rng)
    g = random_field(d, rng)
    quad = np.mean(to_grid(f) * to_grid(g)) * d.area
    assert inner(f, g) == pytest.approx(quad, abs=1e-12)


class TestOddQuarter:
    """The m2 > 0 rows that fix the half of an odd-in-y field, read and written through the
    band block."""

    @pytest.mark.parametrize("n1,n2", [(16, 16), (6, 10), (8, 4)])
    def test_roundtrip_on_odd_fields(self, n1, n2):
        d = Domain(N1=n1, N2=n2)
        half = random_field(d, np.random.default_rng(5)).coeffs[:, : n1 // 2 + 1]
        f = SpectralField(d, np.zeros((n2, n1), complex))
        f.coeffs[:, : n1 // 2 + 1] = half
        block = zns.lattice.OddBand.of(f)
        assert block.coeffs.shape == (-(-n2 // 3) - 1, -(-n1 // 3))
        assert np.array_equal(block.field.coeffs[:, : n1 // 2 + 1], half)

    def test_anything_short_of_exactly_odd_is_refused(self):
        d = Domain(N1=16, N2=16)
        half = random_field(d, np.random.default_rng(6)).coeffs[:, :9]

        def with_half(half):
            f = SpectralField(d, np.zeros((16, 16), complex))
            f.coeffs[:, :9] = half
            return f

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
            with pytest.raises(ValueError, match="not exactly odd"):
                zns.lattice.OddBand.of(with_half(bad))
        zns.lattice.OddBand.of(with_half(half))


class TestOddBand:
    """The band block of an odd field: a trajectory's state, refused once, where it is made."""

    def test_refuses_a_block_of_any_other_shape(self):
        d = Domain(N1=16, N2=16)  # R = 5, K = 6
        assert zns.lattice.OddBand(d, np.zeros((5, 6), complex)).field.coeffs.shape == (16, 16)
        for shape in [(6, 6), (5, 7), (7, 9), (16, 16)]:
            with pytest.raises(ValueError, match=rf"band block shape \({shape[0]}, {shape[1]}\)"):
                zns.lattice.OddBand(d, np.zeros(shape, complex))


class TestPassTransforms:
    """The raw pair runs as stacked 1-D passes and gives the bits of numpy's 2-D wrappers, and
    so do the band kernel's own passes (``operators._BandKernel``)."""

    @pytest.mark.parametrize("stack", [1, 2])
    @pytest.mark.parametrize("d", TRANSFORM_DOMAINS)
    def test_matches_the_2d_wrappers(self, d, stack):
        from zns.operators import _BandKernel

        rng = np.random.default_rng(29)
        half = (stack, d.N2, d.N1 // 2 + 1)
        H = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        V = rng.standard_normal((stack, d.N2, d.N1))
        (r, keep), kernel = d._band_shape, _BandKernel(d)
        assert keep == np.count_nonzero(d.dealias[0, : d.N1 // 2 + 1])
        grids = zns.lattice._irfft2(d, H)
        # The kernel's inverse passes on the half it fills from one block or from two.
        A, B = H[0, :r, :keep], H[-1, -r:, -keep:]
        B = A if stack == 1 else B
        S = np.zeros((2,) + half[1:], dtype=np.complex128)
        for table, rows in zip(d._odd_advect_tables[:2], d._band_rows):
            S[:, rows, :keep] = table * (A if B is A else np.stack((A, B)))
        out = np.empty((2, d.N2, d.N1))
        assert kernel.grids(A, B, out) is out
        for i in range(2):
            want = np.fft.irfftn(S[i], s=(d.N2, d.N1), axes=(0, 1), norm="forward")
            assert np.array_equal(out[i], want)
        # Only the leading columns given: the y-pass runs on those, into a zero-padded half
        # (in the kernel, its ypass, whose other columns stay zero).
        narrow = zns.lattice._irfft2(d, H[..., :keep])
        coeffs = zns.lattice._rfft2(d, V)
        for i in range(stack):
            want = np.fft.irfftn(H[i], s=(d.N2, d.N1), axes=(0, 1), norm="forward")
            assert np.array_equal(grids[i], want)
            assert np.array_equal(zns.lattice._irfft2(d, H[i]), want)
            lead = np.where(np.arange(d.N1 // 2 + 1) < keep, H[i], 0.0)
            want = np.fft.irfftn(lead, s=(d.N2, d.N1), axes=(0, 1), norm="forward")
            assert np.array_equal(narrow[i], want) and not kernel.ypass[..., keep:].any()
            want = np.fft.rfft2(V[i], norm="forward")
            assert np.array_equal(coeffs[i], want)
            # The kernel's forward passes keep the band's columns, in its own buffer.
            kernel.odd_part(V[i])
            assert np.array_equal(kernel.coeffs, want[:, :keep])
            assert np.array_equal(zns.lattice._rfft2(d, V[i])[:, :keep], want[:, :keep])
