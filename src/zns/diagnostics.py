"""Norms, attractor diagnostics and the constructive sup-norm inequality check.

All quantities use the fixed normalization of :mod:`zns.lattice`:
``|grad^s w|^2 = L1 L2 sum |k|^(2s) |w_k|^2`` (so s = 0 is the plain L2
norm), and growing-derivative norms are plain per-mode multiplier sums.
The paper's a-priori quantities are such norms of ``f = forcing(0.0)``: the Grashof
number is ``sobolev_norm(f, -1) / mu**2`` (a sweep records ``grad_inv_f``), and K_s is
``sobolev_norm(f, s + 2) + |sigma| sobolev_norm(fast part of f, s)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .forcing import Forcing
from .lattice import Domain, OddBand, SpectralField, inner, norm, to_grid
from .operators import _odd_uv, apply_A, apply_I_omega, apply_inv_laplacian, apply_L, jacobian
from .operators import split


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm |grad^s f| of a zero-mean field, s >= -1."""
    if s < -1:
        raise ValueError("s must be >= -1")
    d = f.domain
    nz = d.ksq > 0
    weights = np.power(d.ksq[nz], s)
    total = np.sum(weights * np.abs(f.coeffs[nz]) ** 2)
    return float(np.sqrt(d.area * total))


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


def agmon_check(u: SpectralField, v: SpectralField, constant_candidate: float) -> AgmonReport:
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
    lhs = float(np.max(np.abs(to_grid(u))))

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
    )


def first_order_flow(f: SpectralField, mu: float, epsilon: float) -> SpectralField:
    """First-order flow of forcing ``f``: -(1/mu) invLap(zonal f) + eps * I_Omega(fast f).

    The zonal part balances the dissipation against the zonal forcing exactly; the fast
    part inverts the rotation term, leaving an O(eps) defect in the steady equation."""
    fbar, ftil = split(f)
    return apply_inv_laplacian(fbar) * (-1.0 / mu) + apply_I_omega(ftil) * epsilon


def approx_steady_state(forcing: Forcing, mu: float, epsilon: float) -> SpectralField:
    """First-order steady flow of a steady forcing (``first_order_flow`` of its field)."""
    if not forcing.is_steady:
        raise ValueError("approximate steady state requires steady forcing")
    if mu <= 0 or epsilon <= 0:
        raise ValueError(f"mu and epsilon must be positive, got {mu!r} and {epsilon!r}")
    return first_order_flow(forcing(0.0), mu, epsilon)


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


def _band_power(d: Domain, C: np.ndarray) -> np.ndarray:
    """``|c|^2`` on band block ``C``, the m1 > 0 columns counted twice: ``2 L1 L2`` times
    its sum is ``|w|^2`` of the field whose block it is, the 2 for the m2 < 0 rows."""
    p = np.square(C.real) + np.square(C.imag)
    return np.multiply(p, d._half_weight[d._block], out=p)


def band_norm(d: Domain, C: np.ndarray) -> float:
    """``norm`` of the field whose band block is ``C``, from the block alone."""
    return math.sqrt(2.0 * d.area * _band_power(d, C).sum())


def record_state(w: SpectralField, t: float, budget: float = 0.0) -> DiagnosticsRecord:
    """Standard diagnostics of one exactly odd state in the 2/3 band (``ValueError`` for any
    other): ``norm``/``sobolev_norm`` of ``w`` and its ``split`` parts and
    ``velocity(w).max_speed()``.

    Power sums are twice the ``_band_power`` sums over the band block of ``w`` (zonal
    modes are column m1 = 0).  ``u`` is even in y and ``v`` odd, so with ``g = u + v``
    one transform gives ``u^2 + v^2 = (g(y)^2 + g(-y)^2)/2``; it writes only new arrays.
    """
    d = w.domain
    C = OddBand.of(w).coeffs
    p = _band_power(d, C)
    ksq = d.ksq[d._block]
    kp = ksq * p
    g = np.square(_odd_uv(d, C))
    g2 = g.take(d._flip_m2[: d.N2 // 2 + 1], axis=0)  # the rows of -y for y in rows 0..N2/2
    g2 += g[: d.N2 // 2 + 1]
    area = 2.0 * d.area
    return DiagnosticsRecord(
        t=t,
        enstrophy=float(area * p.sum()),
        grad_enstrophy=float(area * kp.sum()),
        zonal_sq=float(area * p[:, 0].sum()),
        fast_sq=float(area * p[:, 1:].sum()),
        fast_h1_sq=float(area * kp[:, 1:].sum()),
        fast_h2_sq=float(area * (ksq[:, 1:] * kp[:, 1:]).sum()),
        budget_residual=budget,
        max_velocity=math.sqrt(0.5 * float(g2.max())),
    )
