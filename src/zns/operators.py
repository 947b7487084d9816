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
  ``_advect_raw`` dispatches on the shape of its input: full or half-width
  coefficients take five real transforms, the m2 > 0 quarter of odd-in-y
  fields three.  The quarter kernel is the composition of two helpers, the
  grids of quarters times the tables (``_odd_grids``) and the odd part of a
  grid product (``_odd_part``), which the tangent step also uses on its own.

Resonance tests (Omega_j + Omega_k = 0) are decided on integer lattice
indices, never on floats: for zonal targets (j + k = l, l1 = 0, so
k1 = -j1) the condition reduces exactly to m2(j)^2 == m2(k)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattice import (
    Domain,
    SpectralField,
    WaveVector,
    _check_same_domain,
    _grid,  # noqa: F401  (re-exported: the phased pair on full arrays)
    _irfft2,
    _rfft2,
    _spec,  # noqa: F401
    _unfold,
    to_grid,
)


def omega_freq(k: WaveVector) -> float:
    """Dispersion frequency Omega_k = -k1/|k|^2; zero exactly when k1 = 0."""
    if k.is_zero:
        raise ValueError("Omega is undefined at k = 0")
    if k.k1 == 0.0:
        return 0.0
    return -k.k1 / k.norm_sq


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

    @property
    def domain(self) -> Domain:
        return self.u.domain

    def max_speed(self) -> float:
        ug = to_grid(self.u).values
        vg = to_grid(self.v).values
        return float(np.max(np.hypot(ug, vg)))


def velocity(w: SpectralField) -> VelocityField:
    """Recover the velocity from vorticity via the streamfunction."""
    d = w.domain
    u = SpectralField(d, 1j * d.ky * d.inv_ksq * w.coeffs)
    v = SpectralField(d, -1j * d.kx * d.inv_ksq * w.coeffs)
    return VelocityField(u, v)


def curl(vel: VelocityField) -> SpectralField:
    """dx(v) - dy(u); reproduces the vorticity the velocity came from."""
    d = vel.domain
    return SpectralField(d, 1j * d.kx * vel.v.coeffs - 1j * d.ky * vel.u.coeffs)


def divergence(vel: VelocityField) -> SpectralField:
    d = vel.domain
    return SpectralField(d, 1j * d.kx * vel.u.coeffs + 1j * d.ky * vel.v.coeffs)


def _advect_raw(d: Domain, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dealiased pseudo-spectral B(a, b) = velocity(a).grad(b) on raw coefficients.

    ``A`` and ``B`` are coefficients of real fields: full ``(N2, N1)``, their
    m1 >= 0 halves, or, for fields odd in y, their m2 > 0 quarters
    ``(N2/2 - 1, N1/2 + 1)``.  The output has the shape of the input and is
    chosen by it: full-width input gives the full Hermitian result, half-width
    input its half, both from five raw transforms; quarter input gives the
    quarter of the (odd) result from three (``_advect_odd``).  The y-phase is
    in the tables and in ``d._advect_mask`` (with the 2/3 rule and the zero
    mean), so the transforms are the raw pair.
    """
    if A.shape[0] != d.N2:
        return _advect_odd(d, A, B)
    full = A.shape[1] == d.N1
    half = np.s_[:, : d.N1 // 2 + 1]
    A, B = A[half], B[half]
    to_u, to_v, to_dx, to_dy = d._advect_tables
    ug = _irfft2(d, to_u * A)
    vg = _irfft2(d, to_v * A)
    bxg = _irfft2(d, to_dx * B)
    byg = _irfft2(d, to_dy * B)
    # Products in place: fewer grid-sized temporaries alive at once.
    ug *= bxg
    vg *= byg
    ug += vg
    out = _rfft2(d, ug)
    out *= d._advect_mask
    # Column m1 = 0 holds m2 and -m2: mirror it, so the half is exactly Hermitian.
    n2 = d.N2 // 2
    np.conjugate(out[n2 - 1 : 0 : -1, 0], out=out[n2 + 1 :, 0])
    return _unfold(d, out) if full else out


def _advect_odd(d: Domain, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``_advect_raw`` on the m2 > 0 quarters of odd-in-y fields (see ``d._odd_advect_tables``).

    The grid product ``(u + v)(bx + by)`` has ``u bx + v by`` as its odd part
    in y, and its other part is even; the odd part of the coefficients keeps
    exactly the former.  The result is the quarter of an exactly odd field,
    with its m1 = 0 column imaginary, so it is Hermitian too once expanded.
    """
    grid, other = _odd_grids(d, A, B)
    grid *= other
    return _odd_part(d, grid)


def _odd_grids(d: Domain, A: np.ndarray, B: np.ndarray | None = None) -> list[np.ndarray]:
    """The grids ``u + v`` of quarter ``A`` and ``bx + by`` of quarter ``B`` (default ``A``).

    Two raw inverse transforms of half-width spectra: a table of
    ``d._odd_advect_tables`` times the quarter on rows m2 > 0 and, mirrored,
    on rows m2 < 0; rows m2 = 0 and -N2/2 stay zero.
    """
    to_uv, to_dxy, _ = d._odd_advect_tables
    n2 = d.N2 // 2
    S = np.zeros((d.N2, A.shape[1]), dtype=np.complex128)
    grids = []
    for table, C in ((to_uv, A), (to_dxy, A if B is None else B)):
        np.multiply(table[1:n2], C, out=S[1:n2])
        np.multiply(table[:n2:-1], C, out=S[:n2:-1])
        grids.append(_irfft2(d, S))
    return grids


def _odd_part(d: Domain, grid: np.ndarray) -> np.ndarray:
    """The masked m2 > 0 quarter of the odd-in-y part of a product of quarter grids.

    One raw forward transform; its m1 = 0 column is imaginary, so the quarter
    expands to an exactly odd, exactly Hermitian half.
    """
    n2 = d.N2 // 2
    F = _rfft2(d, grid)
    out = F[1:n2] - F[:n2:-1]
    out *= d._odd_advect_tables[2]
    out.real[:, 0] = 0.0
    return out


def jacobian(a: SpectralField, b: SpectralField) -> SpectralField:
    """Nonlinear advection term B(a, b), dealiased and mean-free.

    Exactly reproduces the analytic triad sum whenever both inputs are
    supported inside the 2/3 band; odd in y when a and b are.
    """
    _check_same_domain(a, b)
    return SpectralField(a.domain, _advect_raw(a.domain, a.coeffs, b.coeffs))


def b_coeff(j: WaveVector, k: WaveVector, l: WaveVector, domain: Domain) -> float:
    """Analytic triad coefficient; |M|(j^k)/|j|^2 if j + k = l, else 0."""
    if j.is_zero or k.is_zero:
        raise ValueError("triad coefficient requires j, k != 0")
    j1, j2 = domain.indices(j)
    k1, k2 = domain.indices(k)
    l1, l2 = domain.indices(l)
    if (j1 + k1, j2 + k2) != (l1, l2):
        return 0.0
    wedge = j.k1 * k.k2 - j.k2 * k.k1
    return domain.area * wedge / j.norm_sq


def omega_sum_is_zero(j: WaveVector, k: WaveVector, domain: Domain) -> bool:
    """Exact resonance test Omega_j + Omega_k = 0 in rational arithmetic."""
    j1, j2 = domain.indices(j)
    k1, k2 = domain.indices(k)
    if (j1, j2) == (0, 0) or (k1, k2) == (0, 0):
        raise ValueError("resonance test requires j, k != 0")
    # Scale |k|^2 by (L2/2pi)^2: s(m) = m1^2 rho + m2^2 with rho = (L2/L1)^2,
    # an exact rational of the float lengths.  Omega_j + Omega_k = 0 iff
    # j1 s(k) + k1 s(j) = 0.
    rho = (Fraction(domain.L2) / Fraction(domain.L1)) ** 2
    sj = j1 * j1 * rho + j2 * j2
    sk = k1 * k1 * rho + k2 * k2
    return j1 * sk + k1 * sj == 0


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


def triad_identity_residual(j: WaveVector, k: WaveVector, l: WaveVector, domain: Domain) -> float:
    """|B_jkl + B_kjl + l2 (Omega_j + Omega_k) |M||; zero in exact arithmetic.

    Defined on zonal-target triads: requires j + k = l with l1 = 0.
    """
    j1, j2 = domain.indices(j)
    k1, k2 = domain.indices(k)
    l1, l2 = domain.indices(l)
    if (j1, j2) == (0, 0) or (k1, k2) == (0, 0):
        raise ValueError("requires j, k != 0")
    if l1 != 0 or (j1 + k1, j2 + k2) != (l1, l2):
        raise ValueError("requires j + k = l with l1 = 0")
    bjkl = b_coeff(j, k, l, domain)
    bkjl = b_coeff(k, j, l, domain)
    osum = omega_freq(j) + omega_freq(k)
    return abs(bjkl + bkjl + l.k2 * osum * domain.area)


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
                j = domain.wavevector(j1, j2)
                k = domain.wavevector(k1, k2)
                l = domain.wavevector(0, j2 + k2)
                res = triad_identity_residual(j, k, l, domain)
                reports.append(
                    TriadReport(
                        j=(j1, j2),
                        k=(k1, k2),
                        l=(0, j2 + k2),
                        bjkl=b_coeff(j, k, l, domain),
                        bkjl=b_coeff(k, j, l, domain),
                        omega_sum=omega_freq(j) + omega_freq(k),
                        residual=res,
                        resonant=(j2 * j2 == k2 * k2),
                    )
                )
    return reports


def b_omega_triple(
    a: SpectralField, b: SpectralField, c: SpectralField, t: float, epsilon: float
) -> float:
    """Oscillation-weighted triple product against a zonal field.

    Evaluates ``|M|/(2i) sum' l2 a_j b_k conj(c_l) exp(-i(Omega_j+Omega_k)t/eps)``
    over non-resonant triads j + k = l with l zonal and j, k non-zonal; the
    primed sum excludes exact resonances (decided on integer indices, which
    for zonal targets means |m2(j)| = |m2(k)|).  Symmetric in (a, b); real
    for Hermitian-symmetric inputs (the real part is returned).
    """
    _check_same_domain(a, b)
    _check_same_domain(a, c)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = a.domain
    if np.any(np.abs(c.coeffs[:, d.m1 != 0]) > 0):
        raise ValueError("third argument must be purely zonal")
    M2, M1 = np.meshgrid(d.m2, d.m1, indexing="ij")
    nonzonal = (M1 != 0) & d.active
    A = a.coeffs * nonzonal
    B = b.coeffs * nonzonal
    # Index grids of the partner mode k = l - j given l = (0, ml).
    flip1 = (-M1) % d.N1
    total = 0.0 + 0.0j
    half2 = d.N2 // 2
    for i2 in range(d.N2):
        ml = int(d.m2[i2])
        cl = c.coeffs[i2, 0]
        if ml == 0 or cl == 0 or ml == -half2:
            continue
        m2k = ml - M2
        valid = nonzonal & (np.abs(m2k) <= half2 - 1)
        rows = m2k % d.N2
        Bk = B[rows, flip1] * valid
        nonres = (M2 * M2) != (m2k * m2k)
        osum = d.omega + d.omega[rows, flip1]
        phase = np.exp(-1j * osum * (t / epsilon))
        contrib = np.sum(A * Bk * phase * nonres)
        l2 = 2.0 * np.pi * ml / d.L2
        total += l2 * contrib * np.conj(cl)
    return float((d.area / 2j * total).real)
