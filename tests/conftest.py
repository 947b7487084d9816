"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from zns.lattice import Domain, SpectralField, random_field


# Square, N1 != N2 both ways, L1 != L2 both ways, and mode counts not divisible by 4.
KERNEL_DOMAINS = [
    pytest.param(Domain(N1=16, N2=16), id="16x16"),
    pytest.param(Domain(N1=32, N2=32), id="32x32"),
    pytest.param(Domain(L1=4 * np.pi, L2=2 * np.pi, N1=24, N2=16), id="24x16-L1=4pi"),
    pytest.param(Domain(N1=16, N2=32), id="16x32"),
    pytest.param(Domain(N1=6, N2=10), id="6x10"),
    pytest.param(Domain(L1=2 * np.pi, L2=3 * np.pi, N1=16, N2=16), id="16x16-L2=3pi"),
]


@pytest.fixture
def domain():
    return Domain(N1=16, N2=16)


@pytest.fixture
def domain32():
    return Domain(N1=32, N2=32)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def triad_sum_oracle(a: SpectralField, b: SpectralField) -> SpectralField:
    """Brute-force advection term via the analytic triad coefficients.

    Independent of the pseudo-spectral path: loops over every stored mode
    pair (j, k), applies the coefficient (j1 k2 - j2 k1)/|j|^2 from the
    analytic formula, and accumulates onto l = j + k when l is retained.
    The 2/3 mask and the mean removal are applied at the end, matching the
    contract of the production operator.
    """
    d = a.domain
    out = SpectralField.zeros(d)
    half1, half2 = d.N1 // 2, d.N2 // 2
    modes = [(int(m1), int(m2)) for m2 in d.m2 for m1 in d.m1]
    for j1, j2 in modes:
        cj = a.coeffs[j2 % d.N2, j1 % d.N1]
        if cj == 0 or (j1, j2) == (0, 0):
            continue
        jk1 = 2 * np.pi * j1 / d.L1
        jk2 = 2 * np.pi * j2 / d.L2
        jsq = jk1 * jk1 + jk2 * jk2
        for k1, k2 in modes:
            ck = b.coeffs[k2 % d.N2, k1 % d.N1]
            if ck == 0 or (k1, k2) == (0, 0):
                continue
            l1, l2 = j1 + k1, j2 + k2
            if abs(l1) > half1 - 1 or abs(l2) > half2 - 1:
                continue
            kk1 = 2 * np.pi * k1 / d.L1
            kk2 = 2 * np.pi * k2 / d.L2
            wedge = jk1 * kk2 - jk2 * kk1
            out.coeffs[l2 % d.N2, l1 % d.N1] += wedge / jsq * cj * ck
    out.coeffs *= d.dealias
    out.coeffs[0, 0] = 0.0
    return out


def band_limited_pair(domain: Domain, rng, kmax: float):
    a = random_field(domain, rng, kmax=kmax, norm_target=1.0)
    b = random_field(domain, rng, kmax=kmax, norm_target=1.0)
    return a, b
