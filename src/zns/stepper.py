"""Fourth-order exponential (ETDRK4) time integration of the vorticity equation.

The state advances by ``dw/dt = -B(w, w) - (1/eps) L w - mu A w + f``; the
per-mode linear symbol ``lambda_k = -mu |k|^2 - i Omega_k / eps`` is treated
exactly through its exponential, so small eps never restricts the step size.
Only the advection term and the forcing see the Runge-Kutta machinery, which
evaluates them at the quadrature times t, t+h/2, t+h.

Mode amplitudes are integrated in the laboratory frame.  Co-rotating
amplitudes (the representation in which the rotation term disappears) are
obtained by multiplying mode k by ``exp(+i Omega_k t / eps)``.

The dynamics keep the odd-in-y subspace and the 2/3 band, so a state is an ``OddBand``,
the band block (``Domain._block``) of an exactly odd field, and a step runs on that block
alone: the weights are even in m2, so they are built on the block, as is the ``Forcing``
the step reads, and the band kernel returns an exactly odd result, so the step's output
is exactly odd, not odd to round-off.  A step takes and returns ``OddBand``s only:
``OddBand.of`` makes a state of a field, and ``.field`` is the way back.

Each stage runs on the stepper's band kernel.  A base stage is ``f - B(C, C)`` with one
``_advect_raw`` call (traced by the benchmark); a step is always given a ``Forcing``.  A
tangent step linearizes the step about its base stages.  ``step_pair`` has each base
stage keep its grids ``u + v`` and ``bx + by`` in the stepper's buffers (``_advect_raw``'s
``keep``), and a tangent stage is the odd part of one grid sum over them: three
transforms, where two advection calls would take six.  They are the only base a tangent
step reads: on stages that kept none it is refused.  A tangent's blow-up is its own: a
failed contraction, not a broken state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .forcing import Forcing
from .lattice import Domain, OddBand, _frozen, _require_finite
from .operators import _advect_raw, _BandKernel


def _block_of(x: OddBand, what: str = "state") -> np.ndarray:
    """The band block of state ``x``; ``TypeError`` for anything else, a full field too."""
    if not isinstance(x, OddBand):
        raise TypeError(f"{what} must be an OddBand, not {type(x).__name__} (see OddBand.of)")
    return x.coeffs


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
    blowup_threshold: float = 1e12

    def __post_init__(self):
        _require_finite(epsilon=self.epsilon, mu=self.mu, blowup_threshold=self.blowup_threshold)
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")
        if self.mu < 0:
            raise ValueError(f"mu must be nonnegative, got {self.mu!r}")
        if self.blowup_threshold <= 0:  # every step would blow up
            raise ValueError(f"blowup_threshold must be positive, got {self.blowup_threshold}")


# Taylor coefficients 1/(n+m)! of phi_m, enough terms that the remainder at
# |z| = 1 is far below 1e-16.
_N_SERIES = 24


def _phi_series(z: np.ndarray, m: int) -> np.ndarray:
    out = np.zeros_like(z)
    for n in range(_N_SERIES - 1, -1, -1):
        out = out * z + 1.0 / math.factorial(n + m)
    return out


def _phi(z: np.ndarray, m: int) -> np.ndarray:
    """phi_m(z): phi_0 = e^z and phi_k = (phi_(k-1) - 1/(k-1)!)/z, so phi_1 = (e^z-1)/z.

    The recurrence forms no power of z, so it is finite wherever z is, but it
    cancels near z = 0; below |z| = 1 a truncated series is used instead.
    """
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1.0
    zb = np.where(small, 1.0, z)  # no division by ~0 where the series takes over
    out = np.exp(zb)
    for n in range(m):
        out = (out - 1.0 / math.factorial(n)) / zb
    out[small] = _phi_series(z[small], m)
    return out


@dataclass
class EtdCoefficients:
    """Precomputed per-mode ETDRK4 weights for one step size, on the band block."""

    E: np.ndarray    # exp(lambda h)
    E2: np.ndarray   # exp(lambda h/2)
    Q: np.ndarray    # stage weight (h/2) phi_1(lambda h/2)
    f1: np.ndarray   # h (phi_1 - 3 phi_2 + 4 phi_3)
    f2: np.ndarray   # h (phi_2 - 2 phi_3)
    f3: np.ndarray   # h (4 phi_3 - phi_2)


def build_coefficients(domain: Domain, lam: np.ndarray, h: float) -> EtdCoefficients:
    """ETDRK4 weights on the band block (``Domain._block``) of the m2 > 0 rows of the full
    (N2, N1) symbol ``lam``, each within 1e-14 of the sum of its terms' magnitudes (f1
    cancels near its zeros, so not relative).  The symbol is even in m2, so these rows
    serve the m2 < 0 ones too.  Weights that overflow are refused."""
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        z = h * lam[domain._block]
        p1, p2, p3 = _phi(z, 1), _phi(z, 2), _phi(z, 3)
        k = EtdCoefficients(
            E=_frozen(np.exp(z)),
            E2=_frozen(np.exp(0.5 * z)),
            Q=_frozen(0.5 * h * _phi(0.5 * z, 1)),
            f1=_frozen(h * (p1 - 3.0 * p2 + 4.0 * p3)),
            f2=_frozen(h * (p2 - 2.0 * p3)),
            f3=_frozen(h * (4.0 * p3 - p2)),
        )
    if not all(np.isfinite(w).all() for w in vars(k).values()):
        size = f"up to {abs(z).max():.3g}" if np.isfinite(z).all() else "not finite"
        raise ValueError(f"ETDRK4 weights overflow at h={h}, |lambda h| {size}")
    return k


@dataclass
class StepStages:
    """What a tangent step reads of the base step that starts at ``t``: per stage, the
    grids ``(u + v, bx + by)`` of the base state, views of the stepper's buffers that are
    valid until its next ``step_pair``; None if the step kept none."""

    t: float
    grids: np.ndarray | None


class Stepper:
    """Advances vorticity (and tangent perturbations) with a fixed step size.

    A step takes and returns ``OddBand``s (``TypeError`` for a full field); it runs on the
    band block and its output is exactly real and odd.  The full symbol ``lam`` (lambda_k
    above) and the coefficient tables are shared read-only.  Each instance owns what its steps
    write, its band kernel (``operators._BandKernel``) and the buffers where ``step_pair`` keeps
    its tangent step's base grids, so it takes one step at a time, independent of any other.
    """

    def __init__(self, domain: Domain, config: SimConfig, h: float):
        self.domain = domain
        self.config = config
        self.h = h
        with np.errstate(over="ignore", invalid="ignore"):  # refused with its weights
            self.lam = _frozen(-config.mu * domain.ksq - 1j * domain.omega / config.epsilon)
        try:
            self.coeffs = build_coefficients(domain, self.lam, h)
        except ValueError as e:
            raise ValueError(f"epsilon={config.epsilon}: {e}") from None
        self._kernel = _BandKernel(domain)
        self._stage_grids = np.empty((4, 2, domain.N2, domain.N1))

    # -- right-hand sides ---------------------------------------------------

    def _nonlinear(self, C: np.ndarray, f: np.ndarray, keep) -> np.ndarray:
        """``f - B(C, C)`` (``f + (-B)`` bit for bit); with ``keep`` the grids of ``C`` stay in
        that pair of buffers."""
        out = _advect_raw(self.domain, C, C, self._kernel, keep)
        return np.subtract(f, out, out=out)

    def _tangent_nonlinear(self, P: np.ndarray, grids: np.ndarray) -> np.ndarray:
        """``-(B(W, P) + B(P, W))`` on band blocks, for the base ``W`` whose grids are ``grids``.

        The odd part of one grid sum, ``(u_W + v_W)(P_x + P_y) + (u_P + v_P)(W_x + W_y)``:
        two inverse transforms of ``P`` and one forward transform.
        """
        k = self._kernel
        uv, dxy = grids
        uv_p, dxy_p = k.grids(P, P, k.work)
        dxy_p *= uv
        uv_p *= dxy
        dxy_p += uv_p
        return k.odd_part(dxy_p, minus=True)

    def _etdrk4(self, u0: np.ndarray, rhs: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
        """ETDRK4 update of band block ``u0``; ``rhs(i, x)`` is the nonlinear term of stage i.

        The output sum ``E u0 + f1 n1 + 2 f2 (n2 + n3) + f3 n4`` is built in
        place, in that order, with the fresh stage terms as work space.
        """
        k = self.coeffs
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
        return out

    # -- stepping -----------------------------------------------------------

    def _check_state(self, C: np.ndarray, t: float, context: str = "") -> None:
        mags = np.abs(C)
        peak = float(mags.max())
        if not peak <= self.config.blowup_threshold:  # also true for NaN
            finite = np.isfinite(mags)
            i = int(mags.argmax()) if finite.all() else int(finite.argmin())
            i2, i1 = np.unravel_index(i, mags.shape)
            mode = (int(i1), int(i2) + 1)  # block row i2 is m2 = i2 + 1, column i1 is m1 = i1
            raise BlowUpError(t, mode, peak if finite.all() else float("inf"), context)

    def step_with_stages(
        self, w: OddBand, t: float, forcing: Forcing, *, _grids: bool = False
    ) -> tuple[OddBand, StepStages]:
        """One ETDRK4 step and its ``StepStages``, which keep the base grids of its stages
        only with ``_grids``, for a tangent step that follows at once."""
        u0 = _block_of(w)
        f = [forcing.coeffs_at(s) for s in (t, t + self.h / 2, t + self.h)]
        f.insert(2, f[1])  # the two mid-step stages read one evaluation
        grids = self._stage_grids if _grids else None
        keep = (None,) * 4 if grids is None else grids
        out = self._etdrk4(u0, lambda i, x: self._nonlinear(x, f[i], keep[i]))
        self._check_state(out, t + self.h)
        return OddBand(self.domain, out), StepStages(t, grids)

    def step(self, w: OddBand, t: float, forcing: Forcing) -> OddBand:
        return self.step_with_stages(w, t, forcing)[0]

    def tangent_step(self, phi: OddBand, stages: StepStages) -> OddBand:
        """Propagate an odd perturbation by the exact linearization of one step.

        ``stages`` must come from the matching step of the base trajectory;
        the map is then the exact differential of the nonlinear update, so
        finite differences of the nonlinear flow converge to it at O(delta^2).
        Each stage costs three transforms on the base grids that the step kept;
        stages that kept none are refused (``ValueError``).
        """
        P = _block_of(phi, "tangent")
        if stages.grids is None:
            raise ValueError("tangent step on stages that kept no grids (step_pair keeps them)")
        out = self._etdrk4(P, lambda i, p: self._tangent_nonlinear(p, stages.grids[i]))
        self._check_state(out, stages.t + self.h, "tangent")
        return OddBand(self.domain, out)

    def step_pair(
        self, w: OddBand, phi: OddBand, t: float, forcing: Forcing
    ) -> tuple[OddBand, OddBand]:
        """Advance the state and a tangent perturbation through the same step."""
        _block_of(phi, "tangent")
        w_next, stages = self.step_with_stages(w, t, forcing, _grids=True)
        return w_next, self.tangent_step(phi, stages)


def budget_residual(
    w: OddBand,
    w_next: OddBand,
    t: float,
    h: float,
    forcing: Forcing,
    config: SimConfig,
) -> float:
    """Midpoint defect of the enstrophy budget over one step of odd states.

    Returns ``|D(|w|^2/2)/h + mu |grad w|^2_mid - (f, w)_mid|``, O(h^2) on
    smooth trajectories.  The rotation term is antisymmetric and contributes
    exactly zero, as does the advection term.  Both states are ``OddBand``s
    (``TypeError`` for a full field).
    """
    d = w.domain
    w0, w1 = _block_of(w), _block_of(w_next)
    # One weighted sum over the band block of Re((Dw/h + mu |k|^2 mid - f) conj(mid)),
    # doubled for the m2 < 0 rows: Re(Dw conj(mid))/h is D(|w|^2/2)/h per mode.
    mid = w0 + w1
    mid *= 0.5
    r = w1 - w0
    r /= h
    r += config.mu * d.ksq[d._block] * mid
    r -= forcing.coeffs_at(t + h / 2)
    r *= d._half_weight[d._block]
    return float(abs(2.0 * d.area * np.vdot(mid, r).real))
