"""Output checks: reference values, symmetry of the final states, and an oracle spot check.

``compare`` is plain Python so ``run.py`` can use it without importing
numpy; the other checks run in the worker process.
"""

from __future__ import annotations

import math

# Relative tolerance of every compared value.  Reordering the transforms
# moves the values by ~1e-15 after a few hundred steps; a kernel that drops
# a term moves them at O(1) (both checked by the self-test).
RTOL = 1e-9
# Final states must be real and odd in y to this share of their largest coefficient.
SYMMETRY_TOL = 1e-11
# Criterion 3's bound for the pseudo-spectral advection against the triad sum.
ORACLE_TOL = 1e-12
# Support radius of the spot-check pair at 32^2.  Products reach index 16,
# beyond the 2/3 band (10) but short of aliasing back into it (22), so the
# check also catches a kernel without the dealias mask.  The workloads cannot:
# viscosity damps the aliased modes to ~1e-20 within their spin-up.
ORACLE_KMAX = 8.0


def compare(values: dict[str, float], expected: dict[str, float]) -> list[str]:
    """Problems found comparing ``values`` against ``expected``; empty when they agree."""
    problems = []
    for key in sorted(set(expected) | set(values)):
        if key not in values or key not in expected:
            problems.append(f"{key}: present on one side only")
            continue
        a, b = values[key], expected[key]
        if math.isnan(a) and math.isnan(b):  # undefined on both sides, e.g. a one-epsilon slope
            continue
        if not (math.isfinite(a) and abs(a - b) <= RTOL * max(abs(a), abs(b))):
            problems.append(f"{key}: {a!r} differs from {b!r}")
    return problems


def state_problems(label: str, f) -> list[str]:
    """A final state must be a real field, odd in y, to round-off."""
    from zns.lattice import parity_error, reality_error
    import numpy as np

    scale = float(np.max(np.abs(f.coeffs)))
    if not math.isfinite(scale):
        return [f"{label}: non-finite coefficients"]
    problems = []
    for name, err in (("reality", reality_error(f)), ("parity", parity_error(f))):
        if not err <= SYMMETRY_TOL * scale:
            problems.append(f"{label}: {name} error {err:.3e} exceeds {SYMMETRY_TOL:g} x {scale:.3e}")
    return problems


def triad_sum(a, b):
    """Advection term B(a, b) summed triad by triad from the analytic coefficients.

    For each nonzero mode j of ``a`` and every nonzero mode k of ``b``,
    adds ``(j1 k2 - j2 k1)/|j|^2 a_j b_k`` onto l = j + k when l lies inside
    the truncation, then applies the 2/3 mask and removes the mean.  It
    shares no code with the pseudo-spectral path.
    """
    import numpy as np

    d = a.domain
    out = np.zeros((d.N2, d.N1), dtype=np.complex128)
    kr2, kr1 = np.nonzero(b.coeffs)
    k1, k2 = d.m1[kr1], d.m2[kr2]
    ck = b.coeffs[kr2, kr1]
    s1, s2 = 2.0 * np.pi / d.L1, 2.0 * np.pi / d.L2
    for jr2, jr1 in zip(*np.nonzero(a.coeffs)):
        j1, j2 = int(d.m1[jr1]), int(d.m2[jr2])
        l1, l2 = j1 + k1, j2 + k2
        inside = (np.abs(l1) <= d.N1 // 2 - 1) & (np.abs(l2) <= d.N2 // 2 - 1)
        wedge = (j1 * s1) * (k2 * s2) - (j2 * s2) * (k1 * s1)
        jsq = (j1 * s1) ** 2 + (j2 * s2) ** 2
        contrib = wedge / jsq * a.coeffs[jr2, jr1] * ck
        np.add.at(out, (l2[inside] % d.N2, l1[inside] % d.N1), contrib[inside])
    out *= d.dealias
    out[0, 0] = 0.0
    return out


def oracle_spot_check(seed: int) -> list[str]:
    """``jacobian`` on a band-limited 32^2 pair against the triad sum, as in criterion 3."""
    import numpy as np
    from zns.lattice import Domain, random_field
    from zns.operators import jacobian

    domain = Domain(N1=32, N2=32)
    rng = np.random.default_rng(seed)
    a = random_field(domain, rng, kmax=ORACLE_KMAX, norm_target=1.0)
    b = random_field(domain, rng, kmax=ORACLE_KMAX, norm_target=1.0)
    fast = jacobian(a, b).coeffs
    slow = triad_sum(a, b)
    err = float(np.linalg.norm(fast - slow))
    ref = float(np.linalg.norm(slow))
    if not err <= ORACLE_TOL * ref:
        return [f"jacobian differs from the triad sum: {err:.3e} > {ORACLE_TOL:g} x {ref:.3e}"]
    return []
