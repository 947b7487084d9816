"""Periodic domain, wavevector lattice, truncated spectral fields and transforms.

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
  ``c(-k) = conj(c(k))``; a time step reads only its ``m1 >= 0`` half and
  returns the exact Hermitian ``_unfold`` of the new half.  The grid transform
  (numpy's ``irfft2``) reads only the ``m1 >= 0`` half too, and the spectral
  transform (``rfft2``) fills the ``m1 < 0`` half as the exact conjugate
  mirror.  Each applies the y-phase ``(-1)^m2`` of the grid offset around a
  raw transform; the advection tables carry that phase and use the raw pair.
* A field odd in y has ``c(m1, -m2) = -c(m1, m2)``, so its half is fixed by
  the ``m2 > 0`` rows, the quarter ``(N2/2 - 1, N1/2 + 1)``; its m2 = 0 and
  Nyquist rows are zero and its m1 = 0 column is imaginary.  A step whose
  input is exactly odd runs on the quarter (``_odd_quarter``) and expands
  it once, by ``_odd_half``, so an odd trajectory stays odd bit for bit.
* Parseval: the grid mean square of ``w`` equals ``sum_k |c_k|^2`` and the
  L2 norm satisfies ``|w|^2 = L1 L2 sum_k |c_k|^2``.
* The Nyquist row/column (``m = -N/2``) cannot be paired Hermitianly and is
  always kept at zero, as is the mean mode ``k = 0``.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

SNAPSHOT_MAGIC = b"ZNS1"
SNAPSHOT_VERSION = 1


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Domain:
    """Rectangular periodic domain [0, L1) x [-L2/2, L2/2) with an N1 x N2 grid."""

    L1: float = 2.0 * np.pi
    L2: float = 2.0 * np.pi
    N1: int = 64
    N2: int = 64

    def __post_init__(self):
        if not (self.L1 > 0 and self.L2 > 0):
            raise ValueError("domain lengths must be positive")
        for n in (self.N1, self.N2):
            if n < 4 or n % 2 != 0:
                raise ValueError("mode counts must be even and >= 4")

    @property
    def area(self) -> float:
        return self.L1 * self.L2

    @property
    def c0(self) -> float:
        """Smallest nonzero wavenumber magnitude (Poincare constant)."""
        return min(2.0 * np.pi / self.L1, 2.0 * np.pi / self.L2)

    # The cached arrays below are shared by every user of the domain and are
    # read-only; derive new arrays from them instead of writing into them.

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
    def active(self) -> np.ndarray:
        """Modes that may carry nonzero amplitude: not Nyquist, not k = 0."""
        out = ~self.nyquist
        out[0, 0] = False
        return _frozen(out)

    @cached_property
    def dealias(self) -> np.ndarray:
        """2/3-rule mask: True iff |m_i| < N_i/3 in both directions."""
        keep1 = np.abs(self.m1) < self.N1 / 3.0
        keep2 = np.abs(self.m2) < self.N2 / 3.0
        return _frozen(keep2[:, None] & keep1[None, :])

    @cached_property
    def _advect_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Half-width (m1 >= 0) multipliers of the advection kernel, y-phase included.

        ``(i k2/|k|^2, -i k1/|k|^2, i k1, i k2)`` times ``(-1)^m2``: vorticity
        to the grid velocity components ``u`` and ``v``, and a field to its
        grid x and y derivatives, through the raw transform ``_irfft2``.
        """
        half = np.s_[:, : self.N1 // 2 + 1]
        kx, ky, inv_ksq = self.kx[half], self.ky[half], self.inv_ksq[half]
        return tuple(_frozen(t * self._yphase) for t in (
            1j * ky * inv_ksq, -1j * kx * inv_ksq, 1j * kx, 1j * ky
        ))

    @cached_property
    def _advect_mask(self) -> np.ndarray:
        """Half-width 2/3-rule mask times the y-phase, zero at the mean mode."""
        out = self.dealias[:, : self.N1 // 2 + 1] * self._yphase
        out[0, 0] = 0.0
        return _frozen(out)

    @cached_property
    def _odd_advect_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Tables of the advection kernel on the m2 > 0 quarter of odd-in-y input.

        For odd vorticity ``u`` and the y-derivative are even in y, ``v`` and
        the x-derivative odd.  So one raw transform of ``(to_u + to_v) A``
        gives ``u + v``, one of ``(to_dx + to_dy) B`` gives ``bx + by``, and
        the odd part of their product is ``u bx + v by``.  The two sums are
        negated on the m2 < 0 rows, where the odd input is minus its m2 > 0
        row, so they multiply the quarter itself.  The third table is half
        the m2 > 0 rows of ``_advect_mask``, for the odd part
        ``(c(m2) - c(-m2))/2`` of the product's coefficients.
        """
        to_u, to_v, to_dx, to_dy = self._advect_tables
        sign = np.where(self.m2 < 0, -1.0, 1.0)[:, None]
        mask = 0.5 * self._advect_mask[1 : self.N2 // 2]
        return _frozen(sign * (to_u + to_v)), _frozen(sign * (to_dx + to_dy)), _frozen(mask)

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

    def wavevector(self, m1: int, m2: int) -> "WaveVector":
        return WaveVector(2.0 * np.pi * m1 / self.L1, 2.0 * np.pi * m2 / self.L2)

    def indices(self, k: "WaveVector") -> tuple[int, int]:
        """Integer lattice indices of a wavevector; rejects off-lattice input."""
        a1 = k.k1 * self.L1 / (2.0 * np.pi)
        a2 = k.k2 * self.L2 / (2.0 * np.pi)
        m1, m2 = round(a1), round(a2)
        if abs(a1 - m1) > 1e-9 or abs(a2 - m2) > 1e-9:
            raise ValueError(f"wavevector {k} not on the lattice of {self}")
        return m1, m2


@dataclass(frozen=True)
class WaveVector:
    """A point of the wavenumber lattice (physical wavenumbers, not indices)."""

    k1: float
    k2: float

    def __iter__(self):
        yield self.k1
        yield self.k2

    @property
    def norm_sq(self) -> float:
        return self.k1 * self.k1 + self.k2 * self.k2

    @property
    def is_zero(self) -> bool:
        return self.k1 == 0.0 and self.k2 == 0.0


def enumerate_modes(domain: Domain) -> list[WaveVector]:
    """All stored lattice modes in canonical order (k2-major, then k1).

    The listing covers every retained mode exactly once, including ``k = 0``
    and the Nyquist rows whose coefficients are structurally zero; it matches
    the flattening order of the coefficient array and the snapshot layout.
    ``domain.active`` flags the modes that may actually carry amplitude.
    """
    k1 = 2.0 * np.pi * domain.m1 / domain.L1
    k2 = 2.0 * np.pi * domain.m2 / domain.L2
    return [WaveVector(a, b) for b in k2 for a in k1]


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


@dataclass
class GridField:
    """Real samples on the collocation grid, values[j2, j1] = w(x_{j1}, y_{j2})."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        expected = (self.domain.N2, self.domain.N1)
        if self.values.shape != expected:
            raise ValueError(f"grid shape {self.values.shape} != {expected}")


def _check_same_domain(a, b):
    if a.domain != b.domain:
        raise ValueError("fields live on different domains")


def sanitize(f: SpectralField) -> SpectralField:
    """Zero the mean mode and the Nyquist rows in place."""
    f.coeffs[f.domain.nyquist] = 0.0
    f.coeffs[0, 0] = 0.0
    return f


def _irfft2(d: Domain, H: np.ndarray) -> np.ndarray:
    """Raw inverse transform of half-width ``(N2, N1//2 + 1)`` coefficients, no y-phase."""
    return np.fft.irfft2(H, s=(d.N2, d.N1), norm="forward")


def _rfft2(d: Domain, V: np.ndarray) -> np.ndarray:
    """Raw forward transform of real grid values to half-width coefficients, no y-phase."""
    return np.fft.rfft2(V, norm="forward")


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


def _odd_quarter(d: Domain, H: np.ndarray) -> np.ndarray | None:
    """The m2 > 0 rows of the half ``H`` if ``H`` is exactly odd in m2, else None.

    Exact (no tolerance) and None for NaN input: the m2 = 0 and Nyquist rows
    must be zero, each row -m2 the negative of row m2, and the m1 = 0 column
    imaginary, as Hermitian symmetry requires of an odd field.
    """
    n2 = d.N2 // 2
    Q = H[1:n2]
    if H[0].any() or H[n2].any() or (Q + H[:n2:-1]).any() or Q.real[:, 0].any():
        return None
    return Q


def _odd_half(d: Domain, Q: np.ndarray) -> np.ndarray:
    """The half-width coefficients of the odd field whose m2 > 0 rows are ``Q``."""
    n2 = d.N2 // 2
    H = np.zeros((d.N2, Q.shape[1]), dtype=np.complex128)
    H[1:n2] = Q
    np.negative(Q[::-1], out=H[n2 + 1 :])
    return H


def _grid(d: Domain, C: np.ndarray) -> np.ndarray:
    """Real grid values of full or half-width coefficients ``C``; reads the m1 >= 0 columns."""
    return _irfft2(d, C[:, : d.N1 // 2 + 1] * d._yphase)


def _spec(d: Domain, V: np.ndarray) -> np.ndarray:
    """Full Hermitian ``(N2, N1)`` coefficients of real grid values ``V`` (see ``_unfold``)."""
    return _unfold(d, _rfft2(d, V) * d._yphase)


def to_grid(f: SpectralField) -> GridField:
    """Evaluate a real field on the collocation grid; only its m1 >= 0 half is read."""
    return GridField(f.domain, _grid(f.domain, f.coeffs))


def to_spectral(g: GridField) -> SpectralField:
    """Inverse of to_grid; the result is Hermitian, mean- and Nyquist-free."""
    return sanitize(SpectralField(g.domain, _spec(g.domain, g.values)))


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


def dealias_mask(domain: Domain) -> np.ndarray:
    """Per-mode boolean 2/3-rule mask (True = retained after products)."""
    return domain.dealias.copy()


def _half_power(d: Domain, C: np.ndarray) -> np.ndarray:
    """``|c|^2`` on the m1 >= 0 columns of Hermitian ``C``, the m1 > 0 columns
    doubled, so that sums over it equal sums of ``|C|^2`` over the full array."""
    half = C[:, : d.N1 // 2 + 1]
    p = np.square(half.real) + np.square(half.imag)
    p *= d._half_weight
    return p


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
    """Write to a temporary file beside ``path`` that replaces it only if the block completes."""
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
    domain = Domain(l1, l2, n1, n2)
    expected = _HEADER.size + 16 * n1 * n2
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, got {len(raw)}")
    coeffs = np.frombuffer(raw[_HEADER.size:], dtype="<c16").reshape(n2, n1)
    return SpectralField(domain, coeffs.astype(np.complex128)), eps, mu, t
