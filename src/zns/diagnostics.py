"""Norms, attractor diagnostics and the constructive sup-norm inequality check.

All quantities use the fixed normalization of :mod:`zns.lattice`:
``|grad^s w|^2 = L1 L2 sum |k|^(2s) |w_k|^2`` (so s = 0 is the plain L2
norm), and growing-derivative norms are plain per-mode multiplier sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .forcing import Forcing, ForcingSpec, k_weighted_norm
from .lattice import Domain, SpectralField, _half_power, _irfft2, inner, norm, to_grid
from .operators import apply_A, apply_I_omega, apply_inv_laplacian, apply_L, jacobian, split


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm |grad^s f| of a zero-mean field, s >= -1."""
    if s < -1:
        raise ValueError("s must be >= -1")
    d = f.domain
    nz = d.ksq > 0
    weights = np.power(d.ksq[nz], s)
    total = np.sum(weights * np.abs(f.coeffs[nz]) ** 2)
    return float(np.sqrt(d.area * total))


def grashof(forcing: Forcing | ForcingSpec, mu: float) -> float:
    """Dimensionless forcing strength |grad^-1 f| / mu^2.

    Accepts a constructed forcing (norm of its field at t = 0) or a bare
    spec (closed form over the mode list, on the spec's default domain).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if isinstance(forcing, ForcingSpec):
        return k_weighted_norm(forcing, -1.0) / mu**2
    return sobolev_norm(forcing(0.0), -1.0) / mu**2


def dim_bound(G: float, c: float) -> float:
    """Attractor dimension upper bound c G^(2/3) (1 + log G)^(1/3).

    This reports the classical bound, not a measured dimension.  The formula
    targets large G; for G <= 1 the factor (1 + log G) is kept as is (it may
    drop below 1) and is floored at 0 once log G < -1.
    """
    if G <= 0 or c <= 0:
        raise ValueError("G and c must be positive")
    log_term = max(1.0 + math.log(G), 0.0)
    return c * G ** (2.0 / 3.0) * log_term ** (1.0 / 3.0)


@dataclass
class AgmonReport:
    """Outcome of one constructive sup-norm inequality check."""

    lhs: float          # max grid |u|
    rhs: float          # |grad w| (log kappa + 1)^(1/2)
    ratio: float
    kappa: float
    low_sum: float      # sum of |u_k| over 0 < |k| < kappa
    high_sum: float     # sum of |u_k| over |k| >= kappa
    low_bound: float    # Cauchy-Schwarz bound on low_sum
    high_bound: float   # Cauchy-Schwarz bound on high_sum
    constant_candidate: float
    violation: bool
    convention: str


_CONVENTION = (
    "continuum Fourier coefficients; |grad^s w|^2 = L1*L2*sum |k|^(2s)|w_k|^2; "
    "sup norm from collocation maximum"
)


def _grid_max(f: SpectralField, oversample: int) -> float:
    if oversample <= 1:
        return float(np.max(np.abs(to_grid(f).values)))
    d = f.domain
    big = Domain(d.L1, d.L2, d.N1 * oversample, d.N2 * oversample)
    embedded = SpectralField.zeros(big)
    embedded.coeffs[np.ix_(d.m2 % big.N2, d.m1 % big.N1)] = f.coeffs
    return float(np.max(np.abs(to_grid(embedded).values)))


def agmon_check(
    u: SpectralField,
    v: SpectralField,
    constant_candidate: float,
    oversample: int = 1,
) -> AgmonReport:
    """Check |u|_inf <= C |grad w| (log(|D w|/(c0 |grad w|)) + 1)^(1/2), w = u + v.

    Requires u and v zero-mean and L2-orthogonal.  Besides the headline
    ratio, reports the constructive pieces: the split wavenumber kappa, the
    coefficient sums of the low/high parts of u at kappa, and their
    Cauchy-Schwarz bounds computed by direct lattice summation.
    """
    d = u.domain
    nu = norm(u)
    nv = norm(v)
    ip = abs(inner(u, v))
    if nu > 0 and nv > 0 and ip > 1e-10 * nu * nv:
        raise ValueError(f"u and v are not orthogonal: |(u,v)| = {ip:.3e}")
    w = u + v
    grad_w = sobolev_norm(w, 1.0)
    if grad_w == 0:
        raise ValueError("check requires |grad w| > 0")
    lap_w = sobolev_norm(w, 2.0)
    kappa = lap_w / (d.c0 * grad_w)
    rhs = grad_w * math.sqrt(math.log(kappa) + 1.0)
    lhs = _grid_max(u, oversample)

    mag = np.sqrt(d.ksq)
    amp = np.abs(u.coeffs)
    low = (mag > 0) & (mag < kappa)
    high = mag >= kappa
    low_sum = float(np.sum(amp[low]))
    high_sum = float(np.sum(amp[high]))
    low_bound = float(
        np.sqrt(np.sum(d.inv_ksq[low])) * np.sqrt(np.sum(d.ksq[low] * amp[low] ** 2))
    )
    high_bound = float(
        np.sqrt(np.sum(d.inv_ksq[high] ** 2))
        * np.sqrt(np.sum(d.ksq[high] ** 2 * amp[high] ** 2))
    )
    ratio = lhs / rhs
    return AgmonReport(
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        kappa=kappa,
        low_sum=low_sum,
        high_sum=high_sum,
        low_bound=low_bound,
        high_bound=high_bound,
        constant_candidate=constant_candidate,
        violation=ratio > constant_candidate,
        convention=_CONVENTION,
    )


def approx_steady_state(forcing: Forcing, mu: float, epsilon: float) -> SpectralField:
    """First-order steady flow: -(1/mu) invLap(zonal f) + eps * I_Omega(fast f).

    The zonal part balances the dissipation against the zonal forcing
    exactly; the fast part inverts the rotation term against the fast
    forcing, leaving an O(eps) defect in the full steady equation.
    """
    if not forcing.is_steady:
        raise ValueError("approximate steady state requires steady forcing")
    if mu <= 0 or epsilon <= 0:
        raise ValueError("mu and epsilon must be positive")
    fbar, ftil = split(forcing(0.0))
    zonal = apply_inv_laplacian(fbar) * (-1.0 / mu)
    fast = apply_I_omega(ftil) * epsilon
    return zonal + fast


def steady_residual(w: SpectralField, forcing: Forcing, mu: float, epsilon: float) -> float:
    """L2 defect of w in (1/eps) L w + B(w, w) + mu A w = f."""
    if not forcing.is_steady:
        raise ValueError("steady residual requires steady forcing")
    r = apply_L(w) * (1.0 / epsilon) + jacobian(w, w) + apply_A(w) * mu - forcing(0.0)
    return norm(r)


@dataclass
class DiagnosticsRecord:
    """One row of the per-trajectory time series."""

    t: float
    enstrophy: float        # |w|^2
    grad_enstrophy: float   # |grad w|^2
    zonal_sq: float         # |zonal part|^2
    fast_sq: float          # |fast part|^2
    fast_h1_sq: float       # |grad fast part|^2
    fast_h2_sq: float       # |Lap fast part|^2
    budget_residual: float
    max_velocity: float


CSV_COLUMNS = [f.name for f in fields(DiagnosticsRecord)]
assert CSV_COLUMNS == [
    "t", "enstrophy", "grad_enstrophy", "zonal_sq", "fast_sq",
    "fast_h1_sq", "fast_h2_sq", "budget_residual", "max_velocity",
]


def record_state(w: SpectralField, t: float, budget: float = 0.0) -> DiagnosticsRecord:
    """Standard diagnostics of one state: ``norm``/``sobolev_norm`` of ``w`` and its
    ``split`` parts and ``velocity(w).max_speed()``, in one pass over ``|c_k|^2``
    on the m1 >= 0 half (m1 > 0 columns counted twice).

    Zonal modes are column m1 = 0, fast modes the other columns.
    """
    d = w.domain
    half = w.coeffs[:, : d.N1 // 2 + 1]
    p = _half_power(d, w.coeffs)
    ksq = d.ksq[:, : d.N1 // 2 + 1]
    kp = ksq * p
    to_u, to_v = d._advect_tables[:2]
    speed = np.hypot(_irfft2(d, to_u * half), _irfft2(d, to_v * half))
    area = d.area
    return DiagnosticsRecord(
        t=t,
        enstrophy=float(area * p.sum()),
        grad_enstrophy=float(area * kp.sum()),
        zonal_sq=float(area * p[:, 0].sum()),
        fast_sq=float(area * p[:, 1:].sum()),
        fast_h1_sq=float(area * kp[:, 1:].sum()),
        fast_h2_sq=float(area * (ksq[:, 1:] * kp[:, 1:]).sum()),
        budget_residual=budget,
        max_velocity=float(speed.max()),
    )
