"""Band-limited forcing fields with the standing symmetry and smoothness.

A forcing specification lists modes by integer lattice index.  Each listed
entry ``((m1, m2), a)`` contributes the real, odd-in-y field

    2 Re[a exp(i k1 x)] sin(k2 y)

so the coefficient closure (parity partner with negated amplitude plus the
Hermitian partners) is generated automatically.  Listing the same physical
mode twice with incompatible amplitudes is rejected.  Zonal entries
(m1 = 0) must have real amplitude; entries with m2 = 0 cannot carry any
odd-in-y content and are rejected.

Time dependence: a nonzero ``sigma`` makes the forcing time-periodic.
Non-zonal coefficients rotate in phase as ``exp(i sign(k1) sigma t)``,
which keeps the field real and odd in y while leaving every mode's modulus
constant in time; zonal coefficients are held steady, since a phase
rotation there is incompatible with the symmetry.  Hence all the
sup-in-time norms are attained at every t and have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .lattice import Domain, SpectralField, _frozen, _require_finite, parity_error, reality_error
from .lattice import sanitize


@dataclass(frozen=True)
class ForcingSpec:
    """Declarative forcing description: mode list and phase-rotation frequency (0: steady)."""

    modes: tuple[tuple[int, int, complex], ...]
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(
            (int(m1), int(m2), complex(a)) for m1, m2, a in self.modes
        ))
        _require_finite(sigma=self.sigma, amplitudes=tuple(a for _, _, a in self.modes))

    def canonical_modes(self) -> dict[tuple[int, int], complex]:
        """Fold listed entries to canonical keys (m1 >= 0, m2 > 0); validate."""
        out: dict[tuple[int, int], complex] = {}
        for m1, m2, a in self.modes:
            if (m1, m2) == (0, 0):
                raise ValueError("forcing may not list the k = 0 mode")
            if m2 == 0:
                raise ValueError(
                    f"mode ({m1},0) carries no odd-in-y content; remove it"
                )
            if m2 < 0:
                m1, m2, a = -m1, -m2, np.conj(-a)
            if m1 < 0:
                m1, a = -m1, np.conj(a)
            if m1 == 0 and abs(complex(a).imag) > 0:
                raise ValueError(
                    f"zonal mode (0,{m2}) requires a real amplitude, got {a}"
                )
            key = (m1, m2)
            a = complex(a)
            # Listing a mode along with its implied parity/Hermitian partner is
            # fine when the amplitudes agree; anything else is inconsistent.
            if key in out and out[key] != a:
                raise ValueError(
                    f"mode {key}: inconsistent amplitudes {out[key]} and {a}"
                )
            out[key] = a
        return out

    def coefficient_moduli(self) -> list[tuple[int, int, float]]:
        """Flat list of (m1, m2, |c|) over the full coefficient closure."""
        entries = []
        for (m1, m2), a in self.canonical_modes().items():
            mod = abs(a) / 2.0
            if m1 == 0:
                entries += [(0, m2, abs(a)), (0, -m2, abs(a))]
            else:
                entries += [
                    (m1, m2, mod), (m1, -m2, mod), (-m1, -m2, mod), (-m1, m2, mod),
                ]
        return entries

    def scaled(self, factor: float) -> "ForcingSpec":
        return replace(self, modes=tuple((m1, m2, a * factor) for m1, m2, a in self.modes))


class Forcing:
    """Evaluable forcing: call with a time to get the spectral field."""

    def __init__(self, spec: ForcingSpec, domain: Domain):
        self.spec = spec
        self.domain = domain
        base = SpectralField.zeros(domain)
        third1 = domain.N1 / 3.0
        third2 = domain.N2 / 3.0
        for (m1, m2), a in spec.canonical_modes().items():
            if abs(m1) >= third1 or abs(m2) >= third2:
                raise ValueError(
                    f"forcing mode ({m1},{m2}) outside the dealiased band of {domain}"
                )
            c = -0.5j * a
            base.coeffs[m2 % domain.N2, m1 % domain.N1] += c
            base.coeffs[(-m2) % domain.N2, m1 % domain.N1] += -c
            base.coeffs[(-m2) % domain.N2, (-m1) % domain.N1] += np.conj(c)
            base.coeffs[m2 % domain.N2, (-m1) % domain.N1] += -np.conj(c)
        sanitize(base)
        assert parity_error(base) == 0.0 and reality_error(base) == 0.0
        _frozen(base.coeffs)
        self._base = base
        # Phase-rotation frequency per column: sigma * sign(k1), zonal frozen.
        # One row of N1 values; it broadcasts over the m2 rows.
        sign = np.sign(domain.kx[0])
        self._rot = spec.sigma * sign

    @property
    def is_steady(self) -> bool:
        return self.spec.sigma == 0.0

    def __call__(self, t: float) -> SpectralField:
        if self.is_steady:
            return self._base.copy()
        return SpectralField(self.domain, self.coeffs_at(t))

    def coeffs_at(self, t: float) -> np.ndarray:
        """Coefficients at time ``t``; a steady forcing gives its read-only base, not a copy."""
        if self.is_steady:
            return self._base.coeffs
        return self._base.coeffs * np.exp(1j * self._rot * t)

    def derivative(self, t: float) -> SpectralField:
        """Analytic time derivative of the forcing field."""
        coeffs = self._base.coeffs * (1j * self._rot) * np.exp(1j * self._rot * t)
        return SpectralField(self.domain, coeffs)


def make_forcing(spec: ForcingSpec, domain: Domain) -> Forcing:
    """Construct a forcing; validates symmetry, band limits and k != 0."""
    return Forcing(spec, domain)


def k_weighted_norm(spec: ForcingSpec, s: float, domain: Domain = Domain()) -> float:
    """Closed-form |grad^s f| of a spec's field (time-independent modulus)."""
    total = 0.0
    for m1, m2, mod in spec.coefficient_moduli():
        ksq = (2.0 * np.pi * m1 / domain.L1) ** 2 + (2.0 * np.pi * m2 / domain.L2) ** 2
        total += ksq**s * mod**2
    return float(np.sqrt(domain.area * total))


def k_s_norm(spec: ForcingSpec, s: int = 2, domain: Domain = Domain()) -> float:
    """Smoothness measure sup_t |grad^(s+2) f| + sup_t |grad^s df/dt|.

    Closed form: every coefficient modulus is constant in time, so both
    suprema are attained at every t.  Only the domain's periods enter.
    """
    if s < 0 or s != int(s):
        raise ValueError("s must be a nonnegative integer")
    spatial = 0.0
    temporal = 0.0
    for m1, m2, mod in spec.coefficient_moduli():
        ksq = (2.0 * np.pi * m1 / domain.L1) ** 2 + (2.0 * np.pi * m2 / domain.L2) ** 2
        spatial += ksq ** (s + 2) * mod**2
        if m1 != 0:
            temporal += (spec.sigma * mod) ** 2 * ksq**s
    return float(np.sqrt(domain.area * spatial) + np.sqrt(domain.area * temporal))


def spec_from_entries(entries: Iterable[tuple[int, int, float, float]], **fields) -> ForcingSpec:
    """Build a spec from (m1, m2, re, im) rows, the config-file encoding; ``fields`` pass on."""
    modes = tuple((int(m1), int(m2), complex(re, im)) for m1, m2, re, im in entries)
    return ForcingSpec(modes=modes, **fields)
