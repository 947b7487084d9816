"""Fourth-order exponential (ETDRK4) time integration of the vorticity equation.

The state advances by ``dw/dt = -B(w, w) - (1/eps) L w - mu A w + f``; the
per-mode linear symbol ``lambda_k = -mu |k|^2 - i Omega_k / eps`` is treated
exactly through its exponential, so small eps never restricts the step size.
Only the advection term and the forcing see the Runge-Kutta machinery, which
evaluates them at the quadrature times t, t+h/2, t+h.

Mode amplitudes are integrated in the laboratory frame.  Co-rotating
amplitudes (the representation in which the rotation term disappears) are
obtained by multiplying mode k by ``exp(+i Omega_k t / eps)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lattice import Domain, SpectralField, _frozen, inner, norm
from .operators import _advect_raw

ForcingFn = Callable[[float], SpectralField]


class BlowUpError(RuntimeError):
    """Numerical blow-up: a coefficient left the finite/bounded range."""

    def __init__(self, t: float, mode: tuple[int, int], magnitude: float, context: str = ""):
        self.t = t
        self.mode = mode
        self.magnitude = magnitude
        self.context = context
        suffix = f" ({context})" if context else ""
        super().__init__(
            f"blow-up at t={t:.6g}: |coeff| = {magnitude:.3e} at mode {mode}{suffix}"
        )


@dataclass(frozen=True)
class SimConfig:
    """Physical and numerical parameters of a single trajectory."""

    epsilon: float
    mu: float
    advection: bool = True
    blowup_threshold: float = 1e12
    reproject_every: int = 100

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")


@dataclass
class LinearSymbol:
    """Per-mode stiff symbol lambda_k = -mu |k|^2 - i Omega_k / eps."""

    domain: Domain
    lam: np.ndarray

    @classmethod
    def build(cls, domain: Domain, config: SimConfig) -> "LinearSymbol":
        lam = -config.mu * domain.ksq - 1j * domain.omega / config.epsilon
        return cls(domain, _frozen(lam.astype(np.complex128)))


# Taylor coefficients 1/(n+m)! of phi_m, enough terms that the remainder at
# |z| = 1/2 is far below 1e-16.
_N_SERIES = 18


def _phi_series(z: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros_like(z)
    for n in range(_N_SERIES - 1, -1, -1):
        out = out * z + 1.0 / math.factorial(n + m)
    return out


def _phi(z: np.ndarray, m: int) -> np.ndarray:
    """phi_m(z): phi_1 = (e^z-1)/z, phi_2 = (e^z-1-z)/z^2, and so on.

    Direct formulas cancel catastrophically near z = 0; below |z| = 1/2 a
    truncated series is used instead.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    small = np.abs(z) < 0.5
    if np.any(small):
        out[small] = _phi_series(z[small], m)
    big = ~small
    if np.any(big):
        zb = z[big]
        ez = np.exp(zb)
        if m == 1:
            out[big] = (ez - 1.0) / zb
        elif m == 2:
            out[big] = (ez - 1.0 - zb) / zb**2
        elif m == 3:
            out[big] = (ez - 1.0 - zb - 0.5 * zb**2) / zb**3
        else:
            raise ValueError(f"phi_{m} not implemented")
    return out


@dataclass
class EtdCoefficients:
    """Precomputed per-mode exponential Runge-Kutta weights for step size h."""

    h: float
    E: np.ndarray    # exp(lambda h)
    E2: np.ndarray   # exp(lambda h/2)
    Q: np.ndarray    # stage weight (h/2) phi_1(lambda h/2)
    f1: np.ndarray   # h (phi_1 - 3 phi_2 + 4 phi_3)
    f2: np.ndarray   # h (phi_2 - 2 phi_3)
    f3: np.ndarray   # h (4 phi_3 - phi_2)


def build_coefficients(symbol: LinearSymbol, h: float) -> EtdCoefficients:
    """ETDRK4 weights; accurate to ~1e-13 relative for any lambda*h."""
    if h <= 0:
        raise ValueError("step size must be positive")
    z = h * symbol.lam
    p1, p2, p3 = _phi(z, 1), _phi(z, 2), _phi(z, 3)
    return EtdCoefficients(
        h=h,
        E=_frozen(np.exp(z)),
        E2=_frozen(np.exp(0.5 * z)),
        Q=_frozen(0.5 * h * _phi(0.5 * z, 1)),
        f1=_frozen(h * (p1 - 3.0 * p2 + 4.0 * p3)),
        f2=_frozen(h * (p2 - 2.0 * p3)),
        f3=_frozen(h * (4.0 * p3 - p2)),
    )


@dataclass
class StepStages:
    """Base-trajectory values at the quadrature nodes of one step."""

    t: float
    u0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


class Stepper:
    """Advances vorticity (and tangent perturbations) with a fixed step size.

    Immutable after construction (the coefficient tables are shared
    read-only), so one instance can serve any number of independent
    trajectories, including concurrently.
    """

    def __init__(self, domain: Domain, config: SimConfig, h: float):
        self.domain = domain
        self.config = config
        self.h = h
        self.symbol = LinearSymbol.build(domain, config)
        self.coeffs = build_coefficients(self.symbol, h)

    # -- right-hand sides ---------------------------------------------------

    def _nonlinear(self, C: np.ndarray, t: float, forcing: ForcingFn | None) -> np.ndarray:
        if self.config.advection:
            out = -_advect_raw(self.domain, C, C)
        else:
            out = np.zeros_like(C)
        if forcing is not None:
            out = out + forcing(t).coeffs
        return out

    def _tangent_nonlinear(self, W: np.ndarray, P: np.ndarray) -> np.ndarray:
        if not self.config.advection:
            return np.zeros_like(P)
        return -(_advect_raw(self.domain, W, P) + _advect_raw(self.domain, P, W))

    # -- stepping -----------------------------------------------------------

    def _check_state(self, C: np.ndarray, t: float) -> None:
        mags = np.abs(C)
        peak = float(mags.max())
        if not np.isfinite(C).all() or peak > self.config.blowup_threshold:
            if not np.isfinite(C).all():
                bad = ~np.isfinite(C)
                i2, i1 = np.argwhere(bad)[0]
                peak = float("inf")
            else:
                i2, i1 = np.unravel_index(int(mags.argmax()), mags.shape)
            mode = (int(self.domain.m1[i1]), int(self.domain.m2[i2]))
            raise BlowUpError(t, mode, peak)

    def step_with_stages(
        self, w: SpectralField, t: float, forcing: ForcingFn | None = None
    ) -> tuple[SpectralField, StepStages]:
        """One ETDRK4 step; also returns the stage states for tangent use."""
        k = self.coeffs
        h = self.h
        u0 = w.coeffs
        n1 = self._nonlinear(u0, t, forcing)
        a = k.E2 * u0 + k.Q * n1
        n2 = self._nonlinear(a, t + h / 2, forcing)
        b = k.E2 * u0 + k.Q * n2
        n3 = self._nonlinear(b, t + h / 2, forcing)
        c = k.E2 * a + k.Q * (2.0 * n3 - n1)
        n4 = self._nonlinear(c, t + h, forcing)
        out = k.E * u0 + k.f1 * n1 + 2.0 * k.f2 * (n2 + n3) + k.f3 * n4
        self._check_state(out, t + h)
        return SpectralField(self.domain, out), StepStages(t, u0, a, b, c)

    def step(self, w: SpectralField, t: float, forcing: ForcingFn | None = None) -> SpectralField:
        out, _ = self.step_with_stages(w, t, forcing)
        return out

    def tangent_step(self, phi: SpectralField, stages: StepStages) -> SpectralField:
        """Propagate a perturbation by the exact linearization of one step.

        ``stages`` must come from the matching step of the base trajectory;
        the map is then the exact differential of the nonlinear update, so
        finite differences of the nonlinear flow converge to it at O(delta^2).
        """
        k = self.coeffs
        p0 = phi.coeffs
        m1 = self._tangent_nonlinear(stages.u0, p0)
        pa = k.E2 * p0 + k.Q * m1
        m2 = self._tangent_nonlinear(stages.a, pa)
        pb = k.E2 * p0 + k.Q * m2
        m3 = self._tangent_nonlinear(stages.b, pb)
        pc = k.E2 * pa + k.Q * (2.0 * m3 - m1)
        m4 = self._tangent_nonlinear(stages.c, pc)
        out = k.E * p0 + k.f1 * m1 + 2.0 * k.f2 * (m2 + m3) + k.f3 * m4
        self._check_state(out, stages.t + self.h)
        return SpectralField(self.domain, out)

    def step_pair(
        self, w: SpectralField, phi: SpectralField, t: float, forcing: ForcingFn | None = None
    ) -> tuple[SpectralField, SpectralField]:
        """Advance the state and a tangent perturbation through the same step."""
        w_next, stages = self.step_with_stages(w, t, forcing)
        return w_next, self.tangent_step(phi, stages)


def budget_residual(
    w: SpectralField,
    w_next: SpectralField,
    t: float,
    h: float,
    forcing: ForcingFn | None,
    config: SimConfig,
) -> float:
    """Midpoint defect of the enstrophy budget over one step.

    Returns ``|D(|w|^2/2)/h + mu |grad w|^2_mid - (f, w)_mid|``, O(h^2) on
    smooth trajectories.  The rotation term is antisymmetric and contributes
    exactly zero, as does the advection term.
    """
    mid = 0.5 * (w + w_next)
    d_ens = (norm(w_next) ** 2 - norm(w) ** 2) / (2.0 * h)
    grad_sq = float(mid.domain.area * np.sum(mid.domain.ksq * np.abs(mid.coeffs) ** 2))
    injection = inner(forcing(t + h / 2), mid) if forcing is not None else 0.0
    return abs(d_ens + config.mu * grad_sq - injection)
