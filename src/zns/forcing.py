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
rotation there is incompatible with the symmetry.  Hence every sup-in-time
norm of f, or of df/dt (modulus ``|sigma| |f|`` on the non-zonal modes, 0 on
the zonal ones), is attained at t = 0.  A ``Forcing`` stores only the 2/3-band
block (``Domain._block``) of the closure: ``coeffs_at`` gives the block the
step reads, and calling it builds the full field through ``OddBand.field``.
A step takes no other kind of forcing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Domain, OddBand, SpectralField, _frozen, _require_finite


@dataclass(frozen=True)
class ForcingSpec:
    """Declarative forcing description: mode list and phase-rotation frequency (0: steady)."""

    modes: tuple[tuple[int, int, complex], ...]
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(
            (int(m1), int(m2), complex(a)) for m1, m2, a in self.modes
        ))
        _require_finite(sigma=self.sigma, modes=tuple(a for _, _, a in self.modes))

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


class Forcing:
    """Evaluable forcing: call with a time to get the spectral field."""

    def __init__(self, spec: ForcingSpec, domain: Domain):
        self.spec = spec
        self.domain = domain
        r, k = domain._band_shape
        base = np.zeros((r, k), dtype=np.complex128)
        for (m1, m2), a in spec.canonical_modes().items():
            if m1 >= k or m2 > r:  # canonical: m1 >= 0, m2 > 0
                raise ValueError(
                    f"forcing mode ({m1},{m2}) outside the dealiased band of {domain}"
                )
            # Coefficient c at (m1, m2); the m1 = 0 column also holds the
            # Hermitian partner -conj(c) of its parity partner.
            c = -0.5j * a
            base[m2 - 1, m1] = c if m1 else c - np.conj(c)
        self._base = _frozen(base)
        # Phase-rotation frequency per column: sigma * sign(k1), zonal frozen.
        # One row of K values; it broadcasts over the m2 rows.
        self._rot = spec.sigma * np.sign(domain.kx[0, :k])

    @property
    def is_steady(self) -> bool:
        return self.spec.sigma == 0.0

    def __call__(self, t: float) -> SpectralField:
        return OddBand(self.domain, self.coeffs_at(t)).field

    def coeffs_at(self, t: float) -> np.ndarray:
        """The band block at time ``t``; a steady forcing gives its read-only base, not a
        copy."""
        if self.is_steady:
            return self._base
        return self._base * np.exp(1j * self._rot * t)
