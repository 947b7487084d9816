"""Periodic domain, wavenumber lattice, truncated spectral fields and transforms.

Conventions (fixed throughout the package):

* A scalar field is expanded as ``w(x, y) = sum_k c_k exp(i(k1 x + k2 y))``
  with ``k = (2 pi m1 / L1, 2 pi m2 / L2)`` on the integer lattice, so the
  stored coefficients are the continuum Fourier coefficients and analytic
  per-mode formulas apply verbatim.
* Coefficients live in an ``(N2, N1)`` complex array, axis 0 indexing ``m2``
  and axis 1 indexing ``m1``, both in FFT order ``0, 1, ..., N/2-1, -N/2,
  ..., -1``.  Flattening that array in C order is the canonical mode order
  (k2-major, then k1) used by snapshots.
* The collocation grid is ``x_j = j L1/N1`` and ``y_j = -L2/2 + j L2/N2``,
  so grid row 0 sits on the line ``y = -L2/2``.
* Grid fields are real, so a coefficient array is Hermitian,
  ``c(-k) = conj(c(k))``.  The grid transform (an ``ifft`` pass over y,
  then an ``irfft`` pass over x) reads only the ``m1 >= 0`` half, and the
  spectral transform (``rfft`` over x, then ``fft`` over y) fills the
  ``m1 < 0`` half as the exact conjugate mirror (``_unfold``).  Each pass
  is one call of a gufunc of numpy's private ``numpy.fft._pocketfft_umath``.
  Each transform applies the y-phase ``(-1)^m2`` of the grid offset around a
  raw transform; only the band kernel's tables (``Domain._odd_advect_tables``)
  carry that phase and use the raw pair.
* A field odd in y has ``c(m1, -m2) = -c(m1, m2)``, so its half is fixed by
  its ``m2 > 0`` rows; its m2 = 0 and Nyquist rows are zero and its m1 = 0
  column is imaginary.
* A trajectory holds no mode outside the 2/3 band of those rows, the block
  ``Domain._block`` of rows m2 = 1..R with R = ceil(N2/3) - 1 and columns
  m1 = 0..K-1 with K = ceil(N1/3).  So its state is an ``OddBand``, that block
  and nothing else: ``OddBand.of`` is the one place that takes it from a field,
  refusing one that is not exactly odd or has a nonzero coefficient outside
  the band, and its ``field`` is the one expansion of a block to a full field.
* Grid values are plain real ``(N2, N1)`` arrays, ``[j2, j1]`` at
  ``(x_j1, y_j2)``: ``to_grid(f)`` returns one and ``to_spectral(domain,
  values)`` is its inverse.
* The triad layer works on integer index pairs ``(m1, m2)``;
  ``Domain.wavenumber`` gives their physical wavevector.
* Parseval: the grid mean square of ``w`` equals ``sum_k |c_k|^2`` and the
  L2 norm satisfies ``|w|^2 = L1 L2 sum_k |c_k|^2``.
* The Nyquist row/column (``m = -N/2``) cannot be paired Hermitianly and is
  always kept at zero, as is the mean mode ``k = 0``.
"""

from __future__ import annotations

import cmath
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

SNAPSHOT_MAGIC = b"ZNS1"
SNAPSHOT_VERSION = 1
# The gufuncs' (input, factor, output) axes of a 1-D pass over y; an x-pass runs on the last.
_Y_PASS = [(-2,), (), (-2,)]


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.setflags(write=False)
    return a


def _require_finite(**values) -> None:
    """ValueError naming the first keyword whose value (a number or a tuple) is not finite."""
    for name, value in values.items():
        if not all(cmath.isfinite(x) for x in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Domain:
    """Rectangular periodic domain [0, L1) x [-L2/2, L2/2) with an N1 x N2 grid; a read-only
    value.  Its cached tables are read-only arrays shared by every user: derive new arrays
    from them.  A caller that writes, such as a ``Stepper``, owns its buffers."""

    L1: float = 2.0 * np.pi
    L2: float = 2.0 * np.pi
    N1: int = 64
    N2: int = 64

    def __post_init__(self):
        _require_finite(L1=self.L1, L2=self.L2)
        axes = ((1, self.L1, self.N1), (2, self.L2, self.N2))
        for axis, length, n in axes:
            if not length > 0:
                raise ValueError(f"L{axis} must be positive, got {length!r}")
            if n < 4 or n % 2 != 0:
                raise ValueError(f"N{axis} must be even and >= 4, got {n!r}")
        if 16 * int(self.N1) * int(self.N2) > np.iinfo(np.intp).max:  # bytes of (N2, N1) complex
            axis, n = (1, self.N1) if self.N1 >= self.N2 else (2, self.N2)
            raise ValueError(f"N{axis} must be small enough for numpy to index the (N2, N1) "
                             f"complex array, got {n!r}")
        for axis, length, n in axes:
            # Every nonzero |k|^2 is normal: the least is on an axis, the largest is <= 2 high^2.
            low, high = (2.0 * np.pi * m / length for m in (1, n // 2))
            if not (low * low >= np.finfo(float).tiny and high * high <= np.finfo(float).max / 2):
                raise ValueError(f"L{axis} must be a length whose |k|^2 are normal, finite "
                                 f"floats, got {length!r}")

    @property
    def area(self) -> float:
        return self.L1 * self.L2

    @property
    def c0(self) -> float:
        """Smallest nonzero wavenumber magnitude (Poincare constant)."""
        return min(2.0 * np.pi / self.L1, 2.0 * np.pi / self.L2)

    @cached_property
    def m1(self) -> np.ndarray:
        """Integer mode indices along x, FFT order, shape (N1,)."""
        return _frozen(np.fft.fftfreq(self.N1, 1.0 / self.N1).astype(np.int64))

    @cached_property
    def m2(self) -> np.ndarray:
        """Integer mode indices along y, FFT order, shape (N2,)."""
        return _frozen(np.fft.fftfreq(self.N2, 1.0 / self.N2).astype(np.int64))

    @cached_property
    def kx(self) -> np.ndarray:
        """Physical x-wavenumber, broadcast to (N2, N1)."""
        k1 = 2.0 * np.pi * self.m1 / self.L1
        return np.broadcast_to(k1[None, :], (self.N2, self.N1))

    @cached_property
    def ky(self) -> np.ndarray:
        """Physical y-wavenumber, broadcast to (N2, N1)."""
        k2 = 2.0 * np.pi * self.m2 / self.L2
        return np.broadcast_to(k2[:, None], (self.N2, self.N1))

    @cached_property
    def ksq(self) -> np.ndarray:
        return _frozen(self.kx**2 + self.ky**2)

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1/|k|^2 with the k = 0 entry set to zero."""
        out = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=out, where=self.ksq > 0)
        return _frozen(out)

    @cached_property
    def omega(self) -> np.ndarray:
        """Rossby frequency array Omega_k = -k1/|k|^2 (zero on zonal modes)."""
        return _frozen(-self.kx * self.inv_ksq)

    @cached_property
    def nyquist(self) -> np.ndarray:
        """Modes that are structurally zero because they lack a Hermitian partner."""
        return _frozen((self.m2[:, None] == -self.N2 // 2) | (self.m1[None, :] == -self.N1 // 2))

    @cached_property
    def dealias(self) -> np.ndarray:
        """2/3-rule mask: True iff |m_i| < N_i/3 in both directions."""
        keep1 = np.abs(self.m1) < self.N1 / 3.0
        keep2 = np.abs(self.m2) < self.N2 / 3.0
        return _frozen(keep2[:, None] & keep1[None, :])

    @property
    def _band_shape(self) -> tuple[int, int]:
        """``(R, K)``: the band block has R = ceil(N2/3) - 1 rows and K = ceil(N1/3) columns.
        Not cached: a Domain caches only read-only arrays and slices."""
        return -(-self.N2 // 3) - 1, -(-self.N1 // 3)

    @cached_property
    def _block(self) -> tuple[slice, slice]:
        """The 2/3-band block in a full- or half-width array: rows m2 = 1..R and columns
        m1 = 0..K-1, every m2 > 0, m1 >= 0 mode that ``dealias`` keeps."""
        r, k = self._band_shape
        return np.s_[1 : r + 1, :k]

    @cached_property
    def _band_rows(self) -> tuple[slice, slice]:
        """The band's rows m2 = 1..R and m2 = -1..-R in an ``(N2, ...)`` array."""
        r = self._band_shape[0]
        return self._block[0], np.s_[: self.N2 - r - 1 : -1]

    @cached_property
    def _odd_advect_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tables of the band kernel, times the y-phase ``(-1)^m2`` of the raw transforms.

        ``to_u, to_v = i k2/|k|^2, -i k1/|k|^2`` take vorticity to the velocity ``(u, v)``
        and ``to_dx, to_dy = i k1, i k2`` a field to its derivatives.  For odd vorticity ``u``
        and the y-derivative are even in y, ``v`` and the x-derivative odd.  So one raw
        transform of ``(to_u + to_v) A`` gives ``u + v``, one of ``(to_dx + to_dy) B`` gives
        ``bx + by``, and the odd part of their product is ``u bx + v by``.  The two sums are
        negated on the m2 < 0 rows, where the odd input is minus its m2 > 0 row, so they
        multiply the block itself: the first table is the ``(2, R, K)`` stack of both on the
        band's columns and its m2 > 0 ``_band_rows``, the second on its m2 < 0 rows.  The
        third is half the 2/3-rule mask times the y-phase on ``_block``, for the odd part
        ``(c(m2) - c(-m2))/2`` of the product's coefficients.
        """
        half = np.s_[:, : self.N1 // 2 + 1]
        kx, ky, inv_ksq = self.kx[half], self.ky[half], self.inv_ksq[half]
        to_u, to_v, to_dx, to_dy = (t * self._yphase for t in (
            1j * ky * inv_ksq, -1j * kx * inv_ksq, 1j * kx, 1j * ky))
        sign = np.where(self.m2 < 0, -1.0, 1.0)[:, None]
        sums = sign * np.stack((to_u + to_v, to_dx + to_dy))
        up, down = (_frozen(sums[:, rows, self._block[1]].copy()) for rows in self._band_rows)
        mask = self.dealias[self._block] * self._yphase[self._block[0]]
        return up, down, _frozen(0.5 * mask)

    @cached_property
    def _half_weight(self) -> np.ndarray:
        """Weights of sums over the m1 >= 0 columns: 1 at m1 = 0, 2 at m1 > 0."""
        out = np.full((self.N2, self.N1 // 2 + 1), 2.0)
        out[:, 0] = 1.0
        return _frozen(out)

    @cached_property
    def _yphase(self) -> np.ndarray:
        # exp(i k2 * (-L2/2)) = (-1)^m2; accounts for the grid offset in y.
        return _frozen(np.where(self.m2 % 2 == 0, 1.0, -1.0)[:, None])

    @cached_property
    def _flip_m2(self) -> np.ndarray:
        # Row index of -m2 for each m2 row (Nyquist row maps to itself).
        return _frozen((-np.arange(self.N2)) % self.N2)

    @cached_property
    def _flip_m1(self) -> np.ndarray:
        return _frozen((-np.arange(self.N1)) % self.N1)

    def grid_x(self) -> np.ndarray:
        return self.L1 * np.arange(self.N1) / self.N1

    def grid_y(self) -> np.ndarray:
        return -self.L2 / 2.0 + self.L2 * np.arange(self.N2) / self.N2

    def wavenumber(self, m: tuple[int, int]) -> tuple[float, float]:
        """Physical wavevector ``(2 pi m1/L1, 2 pi m2/L2)`` of the lattice indices ``m``."""
        m1, m2 = m
        return 2.0 * np.pi * m1 / self.L1, 2.0 * np.pi * m2 / self.L2


@dataclass
class SpectralField:
    """Truncated Fourier representation of a real zero-mean scalar."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        expected = (self.domain.N2, self.domain.N1)
        if self.coeffs.shape != expected:
            raise ValueError(f"coefficient shape {self.coeffs.shape} != {expected}")

    @classmethod
    def zeros(cls, domain: Domain) -> "SpectralField":
        return cls(domain, np.zeros((domain.N2, domain.N1), dtype=np.complex128))

    @classmethod
    def from_modes(cls, domain: Domain, modes: dict[tuple[int, int], complex]) -> "SpectralField":
        """Build a field from ``{(m1, m2): coefficient}``; entries are raw coefficients."""
        f = cls.zeros(domain)
        for (m1, m2), c in modes.items():
            if abs(m1) > domain.N1 // 2 or abs(m2) > domain.N2 // 2:
                raise ValueError(f"mode ({m1},{m2}) outside truncation")
            f.coeffs[m2 % domain.N2, m1 % domain.N1] = c
        sanitize(f)
        return f

    def copy(self) -> "SpectralField":
        return SpectralField(self.domain, self.coeffs.copy())

    def get_mode(self, m1: int, m2: int) -> complex:
        return complex(self.coeffs[m2 % self.domain.N2, m1 % self.domain.N1])

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_domain(self, other)
        return SpectralField(self.domain, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_domain(self, other)
        return SpectralField(self.domain, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.domain, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.domain, -self.coeffs)


def _check_same_domain(a, b):
    if a.domain != b.domain:
        raise ValueError("fields live on different domains")


def sanitize(f: SpectralField) -> SpectralField:
    """Zero the mean mode and the Nyquist rows in place."""
    f.coeffs[f.domain.nyquist] = 0.0
    f.coeffs[0, 0] = 0.0
    return f


def _irfft2(d: Domain, H: np.ndarray) -> np.ndarray:
    """Raw inverse transform of half-width ``(..., N2, N1//2 + 1)`` coefficients, stacked
    over leading axes, no y-phase: one ``ifft`` pass over y, then one ``irfft`` over x, calls
    of the gufuncs of numpy's private ``numpy.fft._pocketfft_umath`` with the factor that
    ``np.fft``'s wrapper passes for ``norm="forward"``.  ``H`` may hold only the leading
    columns of the half: the y-pass runs on those alone, into a zeroed half."""
    Y = np.zeros(H.shape[:-1] + (d.N1 // 2 + 1,), np.complex128)
    _pocketfft.ifft(H, 1, axes=_Y_PASS, out=Y[..., : H.shape[-1]])
    return _pocketfft.irfft(Y, 1, out=np.empty(Y.shape[:-1] + (d.N1,)))


def _rfft2(d: Domain, V: np.ndarray) -> np.ndarray:
    """Raw forward transform of real grid values to their half-width coefficients, no
    y-phase: one ``rfft`` pass over x, then one ``fft`` over y, through the ``rfft_n_even``
    (a ``Domain``'s N1 is even) and ``fft`` gufuncs as in ``_irfft2``."""
    X = np.empty(V.shape[:-1] + (d.N1 // 2 + 1,), np.complex128)
    _pocketfft.rfft_n_even(V, 1 / d.N1, out=X)
    return _pocketfft.fft(X, 1 / d.N2, axes=_Y_PASS, out=np.empty(X.shape, np.complex128))


def _unfold(d: Domain, half: np.ndarray) -> np.ndarray:
    """Full ``(N2, N1)`` coefficients from their ``m1 >= 0`` half.

    The m1 < 0 columns, and the m2 < 0 half of the m1 = 0 column, are the
    exact conjugate mirror of their partners, so the result is Hermitian by
    construction; the Nyquist row and column are zero.  The mean mode is
    left as given.
    """
    n1, n2 = d.N1 // 2, d.N2 // 2
    out = np.empty((d.N2, d.N1), dtype=np.complex128)
    out[:, : n1 + 1] = half
    # Coefficient (-m1, -m2) is conj of (m1, m2); row -m2 is row N2 - m2.
    np.conjugate(half[0, n1 - 1 : 0 : -1], out=out[0, n1 + 1 :])
    np.conjugate(half[: 0 : -1, n1 - 1 : 0 : -1], out=out[1:, n1 + 1 :])
    np.conjugate(half[n2 - 1 : 0 : -1, 0], out=out[n2 + 1 :, 0])
    out[n2, :] = 0.0
    out[:, n1] = 0.0
    return out


@dataclass(eq=False)
class OddBand:
    """The 2/3-band block ``Domain._block`` of an exactly odd real field that holds no mode
    outside the band: a trajectory's state, whose ``field`` is built once, on first use."""

    domain: Domain
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != self.domain._band_shape:
            raise ValueError(f"band block shape {self.coeffs.shape} != {self.domain._band_shape}")

    @classmethod
    def of(cls, f: SpectralField, what: str = "state") -> OddBand:
        """The band block of ``f`` (a view).  ValueError naming ``what`` ``f`` is unless its half
        is exactly odd in y (zero m2 = 0 and Nyquist rows, row -m2 minus row m2, an imaginary
        m1 = 0 column; NaN fails) and zero outside the band."""
        d = f.domain
        n2, (r, k) = d.N2 // 2, d._band_shape
        H = f.coeffs[:, : d.N1 // 2 + 1]
        if H[0].any() or H[n2].any() or (H[1:n2] + H[:n2:-1]).any() or H.real[1:n2, 0].any():
            raise ValueError(f"{what} is not exactly odd in y (project_parity makes it odd)")
        if H[r + 1 : n2].any() or H[d._block[0], k:].any():
            raise ValueError(f"{what} has a nonzero coefficient outside the 2/3 band "
                             f"0 < m2 <= {r}, |m1| <= {k - 1} of {d}")
        return cls(d, H[d._block])

    @cached_property
    def field(self) -> SpectralField:
        """The full field, shared: do not write into it."""
        d, n2 = self.domain, self.domain.N2 // 2
        H = np.zeros((d.N2, d.N1 // 2 + 1), dtype=np.complex128)
        H[d._block] = self.coeffs
        # All of the m2 < 0 half, not only the band's rows: the rest gets -0.0, as snapshots record.
        np.negative(H[n2 - 1 : 0 : -1], out=H[n2 + 1 :])
        return SpectralField(d, _unfold(d, H))


def _grid(d: Domain, C: np.ndarray) -> np.ndarray:
    """Real grid values of full or half-width coefficients ``C``; reads the m1 >= 0 columns."""
    return _irfft2(d, C[:, : d.N1 // 2 + 1] * d._yphase)


def _spec(d: Domain, V: np.ndarray) -> np.ndarray:
    """Full Hermitian ``(N2, N1)`` coefficients of real grid values ``V`` (see ``_unfold``)."""
    return _unfold(d, _rfft2(d, V) * d._yphase)


def to_grid(f: SpectralField) -> np.ndarray:
    """Real ``(N2, N1)`` values of a field on the collocation grid, ``[j2, j1]`` at
    ``(x_j1, y_j2)``; only its m1 >= 0 half is read."""
    return _grid(f.domain, f.coeffs)


def to_spectral(domain: Domain, values: np.ndarray) -> SpectralField:
    """Inverse of to_grid; the result is Hermitian, mean- and Nyquist-free."""
    expected = (domain.N2, domain.N1)
    if values.shape != expected:
        raise ValueError(f"grid shape {values.shape} != {expected}")
    return sanitize(SpectralField(domain, _spec(domain, values)))


def project_parity(f: SpectralField) -> SpectralField:
    """L2-orthogonal projection onto the odd-in-y subspace.

    Output satisfies coeff(k1, -k2) = -coeff(k1, k2) exactly; in particular
    every m2 = 0 coefficient (and with it the mean) is annihilated.
    """
    d = f.domain
    out = 0.5 * (f.coeffs - f.coeffs[d._flip_m2, :])
    return sanitize(SpectralField(d, out))


def project_reality(f: SpectralField) -> SpectralField:
    """Projection onto fields with real grid values: c(-k) = conj(c(k))."""
    d = f.domain
    mirrored = np.conj(f.coeffs[np.ix_(d._flip_m2, d._flip_m1)])
    return sanitize(SpectralField(d, 0.5 * (f.coeffs + mirrored)))


def parity_error(f: SpectralField) -> float:
    """Max-norm violation of the odd-in-y symmetry."""
    return float(np.max(np.abs(f.coeffs + f.coeffs[f.domain._flip_m2, :])))


def reality_error(f: SpectralField) -> float:
    """Max-norm violation of the Hermitian symmetry."""
    d = f.domain
    mirrored = np.conj(f.coeffs[np.ix_(d._flip_m2, d._flip_m1)])
    return float(np.max(np.abs(f.coeffs - mirrored)))


def norm(f: SpectralField) -> float:
    """L2 norm, |f| = sqrt(L1 L2 sum |c_k|^2)."""
    return float(np.sqrt(f.domain.area * np.sum(np.abs(f.coeffs) ** 2)))


def inner(f: SpectralField, g: SpectralField) -> float:
    """L2 inner product of real fields, (f, g) = L1 L2 Re sum f_k conj(g_k)."""
    _check_same_domain(f, g)
    return float(f.domain.area * np.real(np.sum(f.coeffs * np.conj(g.coeffs))))


def random_field(
    domain: Domain,
    rng: np.random.Generator,
    kmax: float | None = None,
    slope: float = 0.0,
    norm_target: float | None = None,
    odd_in_y: bool = True,
) -> SpectralField:
    """Random real (optionally odd-in-y) field with amplitude ~ |k|^slope.

    ``kmax`` truncates the support at integer-index radius sqrt(m1^2 + m2^2);
    by default the support fills the dealiased band.
    """
    d = domain
    mag = np.sqrt(d.ksq)
    raw = rng.standard_normal((d.N2, d.N1)) + 1j * rng.standard_normal((d.N2, d.N1))
    amp = np.zeros_like(mag)
    nz = d.ksq > 0
    amp[nz] = np.power(mag[nz] / d.c0, slope)
    idx_rad = np.hypot(d.m1[None, :], d.m2[:, None])
    support = d.dealias & (d.ksq > 0)
    if kmax is not None:
        support &= idx_rad <= kmax
    f = SpectralField(d, raw * amp * support)
    f = project_reality(f)
    if odd_in_y:
        f = project_parity(f)
    if norm_target is not None:
        n = norm(f)
        if n == 0:
            raise ValueError("cannot normalize a zero field")
        f = f * (norm_target / n)
    return sanitize(f)


_HEADER = struct.Struct("<4sIIIddddd")


@contextmanager
def _atomic_open(path, mode: str, **kwargs):
    """Write to a temporary file beside ``path`` that replaces it only if the block completes;
    the directory of ``path`` is made first if it does not exist."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_snapshot(path, f: SpectralField, epsilon: float, mu: float, t: float) -> None:
    """Write the little-endian ZNS1 snapshot (header + coefficients in canonical order)."""
    d = f.domain
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, d.N1, d.N2, d.L1, d.L2, epsilon, mu, t
    )
    with _atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes())


def read_snapshot(path) -> tuple[SpectralField, float, float, float]:
    """Read a ZNS1 snapshot; returns (field, epsilon, mu, t)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated snapshot")
    magic, version, n1, n2, l1, l2, eps, mu, t = _HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    try:
        _require_finite(epsilon=eps, mu=mu, t=t)
        domain = Domain(l1, l2, n1, n2)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    expected = _HEADER.size + 16 * n1 * n2
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    coeffs = np.frombuffer(raw[_HEADER.size:], dtype="<c16").reshape(n2, n1)
    return SpectralField(domain, coeffs.astype(np.complex128)), eps, mu, t
