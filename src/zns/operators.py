"""Linear and bilinear operators of the vorticity dynamics.

All operators act on zero-mean spectral fields.  With the continuum
coefficient convention, per mode k:

* ``A = -Laplacian``            -> multiply by |k|^2
* ``inverse Laplacian``         -> multiply by -1/|k|^2 (zero-mean branch)
* ``L = d/dx (inv Laplacian)``  -> multiply by i*Omega_k, Omega_k = -k1/|k|^2
* ``velocity = perp-grad of the streamfunction``:
  u(k) = i k2/|k|^2 w_k (even in y), v(k) = -i k1/|k|^2 w_k (odd in y)
* ``advection B(a, b) = velocity(a) . grad(b)``, evaluated pseudo-spectrally
  with the 2/3 rule; the analytic triad coefficient is
  B_jkl = |M| (j1 k2 - j2 k1)/|j|^2 when j + k = l.  The kernel
  ``_advect_raw`` takes full coefficients (for ``jacobian``: ``u bx + v by``
  of four ``_grid`` calls, back through ``_spec``) or, with a ``_BandKernel``,
  the band blocks (``Domain._block``) of odd-in-y fields held in the 2/3 band,
  the solver's state (three raw transforms: one stacked inverse call for two
  grids and one forward call, each y-pass only on the band's columns).  The
  kernel, one per caller, holds its tables (the only ones that carry the
  y-phase), buffers and views, made once: its ``grids`` are those of blocks
  times the half tables (two products), and its ``odd_part`` is the band block
  of the odd part of a grid product or of its negative; the step uses both.

The triad layer (``omega_freq``, ``b_coeff``, ``triad_scan``) takes integer
index pairs ``(m1, m2)``, so j + k = l is an exact integer test, and computes
physical components through ``Domain.wavenumber``.  The scan computes each
triad's two coefficients and frequency sum once, and from them its residual
``|B_jkl + B_kjl + l2 (Omega_j + Omega_k) |M||``, zero in exact arithmetic.
It decides resonance (Omega_j + Omega_k = 0) on the indices, never on floats:
for zonal targets (j + k = l, l1 = 0, so k1 = -j1) the condition reduces
exactly to m2(j)^2 == m2(k)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .lattice import Domain, SpectralField, _Y_PASS, _check_same_domain, _grid, _irfft2, _spec
from .lattice import to_grid


def omega_freq(m: tuple[int, int], domain: Domain) -> float:
    """Dispersion frequency Omega_k = -k1/|k|^2 of the mode ``m``; zero exactly when m1 = 0."""
    if m == (0, 0):
        raise ValueError("Omega is undefined at k = 0")
    if m[0] == 0:
        return 0.0
    k1, k2 = domain.wavenumber(m)
    return -k1 / (k1 * k1 + k2 * k2)


def apply_A(f: SpectralField) -> SpectralField:
    """Minus-Laplacian: per-mode multiply by |k|^2."""
    return SpectralField(f.domain, f.coeffs * f.domain.ksq)


def apply_inv_laplacian(f: SpectralField) -> SpectralField:
    """Zero-mean inverse Laplacian: per-mode multiply by -1/|k|^2."""
    return SpectralField(f.domain, -f.coeffs * f.domain.inv_ksq)


def apply_L(f: SpectralField) -> SpectralField:
    """Beta-plane rotation operator, per-mode multiply by i*Omega_k."""
    return SpectralField(f.domain, f.coeffs * (1j * f.domain.omega))


def apply_I_omega(f: SpectralField) -> SpectralField:
    """Restricted inverse of apply_L: zonal modes to zero, others / (i*Omega_k)."""
    d = f.domain
    mult = np.zeros((d.N2, d.N1), dtype=np.complex128)
    nonzonal = d.kx != 0
    # 1/(i*Omega) = i |k|^2 / k1
    mult[nonzonal] = 1j * d.ksq[nonzonal] / d.kx[nonzonal]
    return SpectralField(d, f.coeffs * mult)


def split(f: SpectralField) -> tuple[SpectralField, SpectralField]:
    """Zonal/fast decomposition: (k1 = 0 part, remainder)."""
    zonal_mask = f.domain.kx == 0
    zonal = SpectralField(f.domain, f.coeffs * zonal_mask)
    fast = SpectralField(f.domain, f.coeffs * ~zonal_mask)
    return zonal, fast


@dataclass
class VelocityField:
    """Divergence-free velocity recovered from a vorticity field."""

    u: SpectralField
    v: SpectralField

    def max_speed(self) -> float:
        return float(np.max(np.hypot(to_grid(self.u), to_grid(self.v))))


def velocity(w: SpectralField) -> VelocityField:
    """Recover the velocity from vorticity via the streamfunction."""
    d = w.domain
    u = SpectralField(d, 1j * d.ky * d.inv_ksq * w.coeffs)
    v = SpectralField(d, -1j * d.kx * d.inv_ksq * w.coeffs)
    return VelocityField(u, v)


def _advect_raw(d: Domain, A: np.ndarray, B: np.ndarray, kernel=None) -> np.ndarray:
    """Dealiased pseudo-spectral B(a, b) = velocity(a).grad(b) on raw coefficients.

    ``A`` and ``B`` are the full ``(N2, N1)`` coefficients of real fields, or, with a
    ``kernel`` (a ``_BandKernel`` of ``d``), the band blocks ``(R, K)`` of fields odd in y
    and held in the 2/3 band; the output has the shape of the input.  Full input gives the
    full Hermitian result as ``u bx + v by`` of four ``_grid`` calls (with the multipliers of
    ``velocity``) through ``_spec``, the 2/3 rule and a zero mean.  Block input gives the
    block of the odd result from three raw transforms (see ``d._odd_advect_tables``, which
    carry the y-phase): the grid product ``(u + v)(bx + by)`` has ``u bx + v by`` as its odd
    part in y, and its other part is even, so the odd part of its coefficients keeps exactly
    the former.
    """
    if kernel is not None:
        grid, other = kernel.grids(A, B, kernel.work)
        grid *= other
        return kernel.odd_part(grid)
    if A.shape != (d.N2, d.N1):
        raise ValueError(f"coefficients of shape {A.shape} are neither full nor the band block")
    half = np.s_[:, : d.N1 // 2 + 1]
    A, B, kx, ky, inv_ksq = A[half], B[half], d.kx[half], d.ky[half], d.inv_ksq[half]
    ug, vg = _grid(d, 1j * ky * inv_ksq * A), _grid(d, -1j * kx * inv_ksq * A)
    bxg, byg = _grid(d, 1j * kx * B), _grid(d, 1j * ky * B)
    # Products in place: fewer grid-sized temporaries alive at once.
    ug *= bxg
    vg *= byg
    ug += vg
    out = _spec(d, ug)
    out *= d.dealias
    out[0, 0] = 0.0
    return out


class _BandKernel:
    """The band kernel of one caller: the halves of ``d._odd_advect_tables``, the buffers that
    each call consumes, their views and the factors 1/N1 and 1/N2, all made once.  It calls
    the gufuncs of ``lattice._pocketfft`` (read at call time) as ``_irfft2``/``_rfft2`` do,
    with their bits, each x-pass on the last axis."""

    def __init__(self, d: Domain):
        keep, half = d._band_shape[1], d.N1 // 2 + 1
        self.up, self.down, self.mask = d._odd_advect_tables
        # No call writes ``spectrum`` off its ``rows``, or ``ypass`` from column K: both stay 0.
        self.spectrum = np.zeros((2, d.N2, keep), np.complex128)
        self.rows = tuple(self.spectrum[:, s] for s in d._band_rows)
        self.ypass = np.zeros((2, d.N2, half), np.complex128)
        self.ycols = self.ypass[..., :keep]
        self.work = np.empty((2, d.N2, d.N1))
        self.xpass = np.empty((d.N2, half), np.complex128)
        self.xcols = self.xpass[:, :keep]
        self.coeffs = np.empty((d.N2, keep), np.complex128)
        self.coeff_rows = tuple(self.coeffs[s] for s in d._band_rows)
        self.inv_n1, self.inv_n2 = 1 / d.N1, 1 / d.N2

    def grids(self, A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The grids ``u + v`` of band block ``A`` and ``bx + by`` of ``B`` in ``out``, from one
        stacked inverse transform; each half table multiplies the block (``B`` stacked with
        ``A`` unless it is ``A``) once, into ``rows``."""
        C = A if B is A else np.stack((A, B))
        up, down = self.rows
        np.multiply(self.up, C, out=up)
        np.multiply(self.down, C, out=down)
        lattice._pocketfft.ifft(self.spectrum, 1, axes=_Y_PASS, out=self.ycols)
        return lattice._pocketfft.irfft(self.ypass, 1, out=out)

    def odd_part(self, grid: np.ndarray, minus: bool = False) -> np.ndarray:
        """The masked band block of the odd-in-y part of a product of band grids, new: one
        forward transform, and ``F(m2) - F(-m2)`` of its ``coeff_rows``; with ``minus``,
        ``F(-m2) - F(m2)``, the exact negative (up to the sign of a zero).  Its m1 = 0 column
        is imaginary, so the block expands to an exactly odd, exactly Hermitian half."""
        lattice._pocketfft.rfft_n_even(grid, self.inv_n1, out=self.xpass)
        lattice._pocketfft.fft(self.xcols, self.inv_n2, axes=_Y_PASS, out=self.coeffs)
        F_up, F_down = self.coeff_rows
        Q = np.subtract(F_down, F_up) if minus else np.subtract(F_up, F_down)
        Q *= self.mask
        Q.real[:, 0] = 0.0
        return Q


def _odd_uv(d: Domain, C: np.ndarray) -> np.ndarray:
    """The grid ``u + v`` of band block ``C``, in new arrays, from each half's first table."""
    S = np.zeros((d.N2, d._band_shape[1]), np.complex128)
    for half, rows in zip(d._odd_advect_tables[:2], d._band_rows):
        np.multiply(half[0], C, out=S[rows])
    return _irfft2(d, S)


def jacobian(a: SpectralField, b: SpectralField) -> SpectralField:
    """Nonlinear advection term B(a, b), dealiased and mean-free.

    Exactly reproduces the analytic triad sum whenever both inputs are
    supported inside the 2/3 band; odd in y when a and b are.
    """
    _check_same_domain(a, b)
    return SpectralField(a.domain, _advect_raw(a.domain, a.coeffs, b.coeffs))


def b_coeff(j: tuple[int, int], k: tuple[int, int], l: tuple[int, int], domain: Domain) -> float:
    """Analytic triad coefficient of index pairs; |M|(j^k)/|j|^2 if j + k = l, else 0."""
    if (0, 0) in (j, k):
        raise ValueError("triad coefficient requires j, k != 0")
    if (j[0] + k[0], j[1] + k[1]) != l:
        return 0.0
    (j1, j2), (k1, k2) = domain.wavenumber(j), domain.wavenumber(k)
    return domain.area * (j1 * k2 - j2 * k1) / (j1 * j1 + j2 * j2)


@dataclass
class TriadReport:
    """One scanned triple j + k = l with l zonal."""

    j: tuple[int, int]
    k: tuple[int, int]
    l: tuple[int, int]
    bjkl: float
    bkjl: float
    omega_sum: float
    residual: float
    resonant: bool


def _zonal_triad(j, k, l, domain: Domain) -> tuple[float, float, float, float]:
    """``(B_jkl, B_kjl, Omega_j + Omega_k, residual)`` of a triad j + k = l with l1 = 0."""
    bjkl, bkjl = b_coeff(j, k, l, domain), b_coeff(k, j, l, domain)
    osum = omega_freq(j, domain) + omega_freq(k, domain)
    return bjkl, bkjl, osum, abs(bjkl + bkjl + domain.wavenumber(l)[1] * osum * domain.area)


def triad_scan(domain: Domain, max_k: int) -> list[TriadReport]:
    """Exhaustive zonal-target triad scan over |j| <= max_k, |k| <= max_k.

    Enumerates every integer pair j, k (both nonzero, Euclidean index radius
    at most max_k) with j + k on the zonal axis.
    """
    reports = []
    r2 = max_k * max_k
    for j1 in range(-max_k, max_k + 1):
        for j2 in range(-max_k, max_k + 1):
            if (j1, j2) == (0, 0) or j1 * j1 + j2 * j2 > r2:
                continue
            k1 = -j1
            for k2 in range(-max_k, max_k + 1):
                if (k1, k2) == (0, 0) or k1 * k1 + k2 * k2 > r2:
                    continue
                j, k, l = (j1, j2), (k1, k2), (0, j2 + k2)
                reports.append(TriadReport(j, k, l, *_zonal_triad(j, k, l, domain),
                                           resonant=(j2 * j2 == k2 * k2)))
    return reports
