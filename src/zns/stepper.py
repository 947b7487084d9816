"""Fourth-order exponential (ETDRK4) time integration of the vorticity equation.

The state advances by ``dw/dt = -B(w, w) - (1/eps) L w - mu A w + f``; the
per-mode linear symbol ``lambda_k = -mu |k|^2 - i Omega_k / eps`` is treated
exactly through its exponential, so small eps never restricts the step size.
Only the advection term and the forcing see the Runge-Kutta machinery, which
evaluates them at the quadrature times t, t+h/2, t+h.

Mode amplitudes are integrated in the laboratory frame.  Co-rotating
amplitudes (the representation in which the rotation term disappears) are
obtained by multiplying mode k by ``exp(+i Omega_k t / eps)``.

A step runs on the m1 >= 0 half of the state.  When that half is exactly odd
in y (and so is the forcing), it runs on the m2 > 0 quarter instead: the
weights are even in m2 and the quarter advection kernel returns an exactly
odd result, so the step's output is exactly odd, not odd to round-off.  The
kernel ``_advect_raw`` picks its path from the shape of its input.

A tangent step linearizes the step about its base stages.  On the quarter,
``step_pair`` has the base step keep each stage's grids ``u + v`` and
``bx + by``, and a tangent stage is the odd part of one grid sum over them:
three transforms, where two advection calls would take six.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forcing import Forcing
from .lattice import Domain, SpectralField, _frozen, _odd_half, _odd_quarter, _unfold
from .operators import _advect_raw, _odd_grids, _odd_part

ForcingFn = Callable[[float], SpectralField]


def _forcing_at(forcing: ForcingFn, t: float, rows) -> np.ndarray:
    """The forcing at ``t`` on ``rows``; for a steady ``Forcing`` a read-only view of its base."""
    f = forcing.coeffs_at(t) if isinstance(forcing, Forcing) else forcing(t).coeffs
    return f[rows]


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
    """ETDRK4 weights on the m1 >= 0 columns; ~1e-13 relative for any lambda*h."""
    if h <= 0:
        raise ValueError("step size must be positive")
    z = h * symbol.lam[:, : symbol.domain.N1 // 2 + 1]
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
    """Base-trajectory values at the quadrature nodes of one step: m1 >= 0
    halves, or m2 > 0 quarters when the step ran on the quarter."""

    t: float
    u0: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    # Per stage, the grids (u + v, bx + by) of a quarter step that kept them.
    grids: tuple[list[np.ndarray], ...] | None = None


class Stepper:
    """Advances vorticity (and tangent perturbations) with a fixed step size.

    A step reads only the m1 >= 0 half of its input and returns the exact
    Hermitian unfold of the updated half, so its output is real bit for bit.
    If the half is exactly odd in m2, and so is the forcing (a ``Forcing`` is
    by construction), the step runs on the m2 > 0 quarter and expands it to
    the half once, before the unfold, so its output is exactly odd too.
    Immutable after construction (the coefficient tables are shared
    read-only), so one instance can serve any number of independent
    trajectories, including concurrently.
    """

    def __init__(self, domain: Domain, config: SimConfig, h: float):
        self.domain = domain
        self.config = config
        self.h = h
        self.symbol = LinearSymbol.build(domain, config)
        k = self.coeffs = build_coefficients(self.symbol, h)
        # The weights are even in m2, so their m2 > 0 rows serve the whole quarter.
        self._quarter_coeffs = EtdCoefficients(h, *(
            _frozen(x[1 : domain.N2 // 2].copy()) for x in (k.E, k.E2, k.Q, k.f1, k.f2, k.f3)
        ))
        self._half = np.s_[:, : domain.N1 // 2 + 1]

    # -- right-hand sides ---------------------------------------------------

    def _nonlinear(
        self, C: np.ndarray, f: np.ndarray | None, grids: list | None = None
    ) -> np.ndarray:
        """``f - B(C, C)``; with a ``grids`` list (quarters only) it keeps the base grids too."""
        if self.config.advection:
            if grids is None:
                out = _advect_raw(self.domain, C, C)
            else:
                grids.append(_odd_grids(self.domain, C))
                out = _odd_part(self.domain, grids[-1][0] * grids[-1][1])
            np.negative(out, out=out)
        else:
            out = np.zeros_like(C)
        if f is not None:
            out += f
        return out

    def _tangent_nonlinear(
        self, W: np.ndarray, P: np.ndarray, grids: list[np.ndarray] | None = None
    ) -> np.ndarray:
        """``-(B(W, P) + B(P, W))``.

        On quarters it is the odd part of one grid sum,
        ``(u_W + v_W)(P_x + P_y) + (u_P + v_P)(W_x + W_y)``: two inverse
        transforms of ``P`` and one forward transform, with the base grids
        ``grids`` of ``W`` (built here if None).  Halves take two advection calls.
        """
        d = self.domain
        if not self.config.advection:
            return np.zeros_like(P)
        if P.shape[0] == d.N2:
            out = _advect_raw(d, W, P)
            out += _advect_raw(d, P, W)
        else:
            uv, dxy = _odd_grids(d, W) if grids is None else grids
            uv_p, dxy_p = _odd_grids(d, P)
            dxy_p *= uv
            uv_p *= dxy
            dxy_p += uv_p
            out = _odd_part(d, dxy_p)
        return np.negative(out, out=out)

    def _etdrk4(
        self, u0: np.ndarray, rhs: Callable[[int, np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """ETDRK4 update of ``u0``, where ``rhs(i, x)`` is the nonlinear term of stage i.

        ``u0`` is a half or a quarter, and the weights are taken to match.
        Returns the new state and the stage states a, b, c.  The output sum
        ``E u0 + f1 n1 + 2 f2 (n2 + n3) + f3 n4`` is built in place, in that
        order, with the fresh stage terms as work space.
        """
        k = self.coeffs if u0.shape[0] == self.domain.N2 else self._quarter_coeffs
        n1 = rhs(0, u0)
        e2u0 = k.E2 * u0
        a = k.Q * n1 + e2u0
        n2 = rhs(1, a)
        b = k.Q * n2 + e2u0
        n3 = rhs(2, b)
        c = k.Q * (2.0 * n3 - n1) + k.E2 * a
        n4 = rhs(3, c)
        n2 += n3
        n2 *= 2.0
        out = k.E * u0
        for f, n in ((k.f1, n1), (k.f2, n2), (k.f3, n4)):
            n *= f
            out += n
        return out, a, b, c

    # -- stepping -----------------------------------------------------------

    def _check_state(self, C: np.ndarray, t: float) -> None:
        mags = np.abs(C)
        peak = float(mags.max())
        if not peak <= self.config.blowup_threshold:  # also true for NaN
            finite = np.isfinite(mags)
            i = int(mags.argmax()) if finite.all() else int(finite.argmin())
            i2, i1 = np.unravel_index(i, mags.shape)
            # Quarter row i holds m2 = i + 1.
            m2 = self.domain.m2[i2] if C.shape[0] == self.domain.N2 else i2 + 1
            mode = (int(self.domain.m1[i1]), int(m2))
            raise BlowUpError(t, mode, peak if finite.all() else float("inf"))

    def _field(self, C: np.ndarray) -> SpectralField:
        """The full field of a half or a quarter."""
        d = self.domain
        return SpectralField(d, _unfold(d, C if C.shape[0] == d.N2 else _odd_half(d, C)))

    def step_with_stages(
        self, w: SpectralField, t: float, forcing: ForcingFn | None = None, *, _grids: bool = False
    ) -> tuple[SpectralField, StepStages]:
        """One ETDRK4 step; also returns the stage states for tangent use.

        With ``_grids`` a quarter step also keeps the base grids of its stages
        in ``StepStages.grids``, for a tangent step that follows at once.
        """
        d = self.domain
        u0 = w.coeffs[self._half]
        f = [None if forcing is None else _forcing_at(forcing, s, self._half)
             for s in (t, t + self.h / 2, t + self.h)]
        f.insert(2, f[1])  # the two mid-step stages read one evaluation
        quarter = _odd_quarter(d, u0)
        if quarter is not None and (isinstance(forcing, Forcing) or all(
            x is None or _odd_quarter(d, x) is not None for x in f
        )):
            u0, f = quarter, [x if x is None else x[1 : d.N2 // 2] for x in f]
        grids = [] if _grids and self.config.advection and u0.shape[0] != d.N2 else None
        out, a, b, c = self._etdrk4(u0, lambda i, x: self._nonlinear(x, f[i], grids))
        self._check_state(out, t + self.h)
        return self._field(out), StepStages(t, u0, a, b, c, None if grids is None else tuple(grids))

    def step(self, w: SpectralField, t: float, forcing: ForcingFn | None = None) -> SpectralField:
        out, _ = self.step_with_stages(w, t, forcing)
        return out

    def tangent_step(self, phi: SpectralField, stages: StepStages) -> SpectralField:
        """Propagate a perturbation by the exact linearization of one step.

        ``stages`` must come from the matching step of the base trajectory;
        the map is then the exact differential of the nonlinear update, so
        finite differences of the nonlinear flow converge to it at O(delta^2).

        On quarter stages an odd ``phi`` steps on its quarter, where each stage
        costs three transforms: the base grids come from ``stages.grids`` if
        the step kept them, else from the stage states.  Any other ``phi``
        steps on the half with two advection calls per stage.
        """
        d = self.domain
        base = (stages.u0, stages.a, stages.b, stages.c)
        grids = stages.grids or (None,) * 4
        p0 = phi.coeffs[self._half]
        if stages.u0.shape[0] != d.N2:
            # Quarter stages: step on the quarter if phi is odd, else on the half.
            quarter = _odd_quarter(d, p0)
            if quarter is None:
                base = tuple(_odd_half(d, x) for x in base)
            else:
                p0 = quarter
        out, *_ = self._etdrk4(p0, lambda i, p: self._tangent_nonlinear(base[i], p, grids[i]))
        self._check_state(out, stages.t + self.h)
        return self._field(out)

    def step_pair(
        self, w: SpectralField, phi: SpectralField, t: float, forcing: ForcingFn | None = None
    ) -> tuple[SpectralField, SpectralField]:
        """Advance the state and a tangent perturbation through the same step."""
        w_next, stages = self.step_with_stages(w, t, forcing, _grids=True)
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
    d = w.domain
    half = np.s_[:, : d.N1 // 2 + 1]
    w0, w1 = w.coeffs[half], w_next.coeffs[half]
    # One weighted sum over the half of Re((Dw/h + mu |k|^2 mid - f) conj(mid)):
    # Re(Dw conj(mid))/h is D(|w|^2/2)/h per mode.
    mid = w0 + w1
    mid *= 0.5
    r = w1 - w0
    r /= h
    r += config.mu * d.ksq[half] * mid
    if forcing is not None:
        r -= _forcing_at(forcing, t + h / 2, half)
    r *= d._half_weight
    return float(abs(d.area * np.vdot(mid, r).real))
