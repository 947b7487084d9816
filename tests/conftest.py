"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import shutil
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from zns.lattice import Domain, OddBand, SpectralField, project_parity, random_field
from zns.stepper import Stepper

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Hypothesis keeps its example database and constants cache in a temporary
    directory for the run, so a test run writes nothing into the working tree."""
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="zns-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


# Square, N1 != N2 both ways, L1 != L2 both ways, and mode counts not divisible by 4.
KERNEL_DOMAINS = [
    pytest.param(Domain(N1=16, N2=16), id="16x16"),
    pytest.param(Domain(N1=32, N2=32), id="32x32"),
    pytest.param(Domain(L1=4 * np.pi, L2=2 * np.pi, N1=24, N2=16), id="24x16-L1=4pi"),
    pytest.param(Domain(N1=16, N2=32), id="16x32"),
    pytest.param(Domain(N1=6, N2=10), id="6x10"),
    pytest.param(Domain(L1=2 * np.pi, L2=3 * np.pi, N1=16, N2=16), id="16x16-L2=3pi"),
]
# The kernel domains and the benchmark's larger sizes.
TRANSFORM_DOMAINS = KERNEL_DOMAINS + [
    pytest.param(Domain(N1=64, N2=64), id="64x64"),
    pytest.param(Domain(N1=128, N2=128), id="128x128"),
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


def field_forcing(fn):
    """A manufactured forcing, read by a step as it reads a ``Forcing``: ``coeffs_at(t)`` is
    the band block of the odd part of the field ``fn(t)``, which is odd only to round-off."""
    return SimpleNamespace(coeffs_at=lambda t: OddBand.of(project_parity(fn(t)), "forcing").coeffs)


def on_fields(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, a ``Stepper`` method or ``budget_residual``, on full fields:
    each ``SpectralField`` argument becomes a state through ``OddBand.of``, and each
    ``OddBand`` returned, alone or in a tuple, its ``.field``."""
    out = fn(*(OddBand.of(a) if isinstance(a, SpectralField) else a for a in args), **kwargs)
    if isinstance(out, tuple):
        return tuple(x.field if isinstance(x, OddBand) else x for x in out)
    return out.field if isinstance(out, OddBand) else out


class LinearStepper(Stepper):
    """A ``Stepper`` of the linear flow, B = 0: the nonlinear term of a step is the
    forcing block alone, and that of a tangent step is zero.  Each step is then one
    exponential of the linear symbol per mode (plus the forced response)."""

    def _nonlinear(self, C, f, keep):
        out = np.zeros_like(C)
        if f is not None:
            out += f
        return out

    def _tangent_nonlinear(self, P, grids):
        return np.zeros_like(P)


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
