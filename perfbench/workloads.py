"""The four benchmark workloads: inputs built from a seed, and one experiment call each.

Every workload uses the acceptance forcing ((0,1,1.0), (1,1,0.5)) at
mu = 0.5 and goes through a public entry point of the package:
``run_epsilon_sweep``, ``run_contraction_test`` or ``zns.cli.main``.
The measurement windows are short (a few hundred steps), so the theorem
verdicts they produce are recorded but never gated on; the acceptance
tests remain the theorem gate.

This module imports ``zns`` only inside functions, so ``run.py`` can read
the workload table without importing the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

FORCING_MODES = ((0, 1, 1.0), (1, 1, 0.5))
MU = 0.5
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep", "contraction" or "simulate"
    resolution: int
    epsilons: tuple[float, ...]
    h: float
    n_steps: int              # steps per trajectory
    spin_steps: int           # the measurement window starts after this many steps
    record_every: int
    base_seed: int            # acceptance seed, reproduced by DEFAULT_SEED
    n_seeds: int = 1
    snapshot_every_steps: int = 0

    @property
    def steps(self) -> int:
        """Trajectory steps per experiment call; base and tangent steps count one each."""
        if self.kind == "contraction":
            return 3 * self.n_steps  # w1 and w2 base steps plus one tangent step
        return len(self.epsilons) * self.n_seeds * self.n_steps


WORKLOADS = {
    w.name: w
    for w in (
        # The main use of the solver: advection is ~87% of a step, no tangent,
        # no file I/O, little diagnostics.  Builds four Steppers.
        Workload("sweep-64", "sweep", 64, (0.1, 0.05, 0.025, 0.0125), 0.008,
                 n_steps=125, spin_steps=60, record_every=10, base_seed=7),
        # The only workload with tangent steps (about half the time).
        Workload("contraction-64", "contraction", 64, (0.01,), 0.008,
                 n_steps=200, spin_steps=40, record_every=3, base_seed=11),
        # Eight small trajectories: fixed per-call cost dominates.
        Workload("ensemble-32", "sweep", 32, (0.05,), 0.008,
                 n_steps=125, spin_steps=60, record_every=10, base_seed=7, n_seeds=8),
        # FFT-bound size through the CLI: config parsing, CSV and snapshots.
        # h = 0.008 fails the CFL estimate at 128^2, hence h = 0.004.
        Workload("simulate-128", "simulate", 128, (0.05,), 0.004,
                 n_steps=125, spin_steps=60, record_every=1, base_seed=7,
                 snapshot_every_steps=25),
    )
}


def experiment_config(w: Workload, seed: int):
    from zns.forcing import ForcingSpec
    from zns.harness import ExperimentConfig
    from zns.lattice import Domain

    return ExperimentConfig(
        domain=Domain(N1=w.resolution, N2=w.resolution),
        mu=MU,
        epsilons=w.epsilons,
        forcing=ForcingSpec(modes=FORCING_MODES),
        h=w.h,
        t_end=w.n_steps * w.h,
        t_spin=w.spin_steps * w.h,
        seed=w.base_seed + seed,
        record_every=w.record_every,
    )


def config_text(config) -> str:
    """The .cfg file that ``zns simulate`` reads for ``config``."""
    lines = [
        f"n1 = {config.domain.N1}",
        f"n2 = {config.domain.N2}",
        f"mu = {config.mu!r}",
        "epsilon = " + ",".join(repr(e) for e in config.epsilons),
        f"h = {config.h!r}",
        f"t_end = {config.t_end!r}",
        f"t_spin = {config.t_spin!r}",
        f"seed = {config.seed}",
        f"record_every = {config.record_every}",
    ]
    lines += [
        f"forcing.mode = {m1},{m2},{complex(a).real!r},{complex(a).imag!r}"
        for m1, m2, a in config.forcing.modes
    ]
    return "\n".join(lines) + "\n"


def prepare(w: Workload, seed: int, workdir: Path):
    """Build the inputs of one experiment call; return the call as a thunk.

    Validates the experiment configuration (including the CFL estimate) and,
    for ``simulate-128``, writes the .cfg file and checks that ``load_config``
    reads back exactly the intended configuration.
    """
    config = experiment_config(w, seed)
    if w.kind == "sweep":
        from zns.harness import run_epsilon_sweep

        return lambda: run_epsilon_sweep(config, n_seeds=w.n_seeds)
    if w.kind == "contraction":
        from zns.harness import run_contraction_test

        return lambda: run_contraction_test(config)

    import zns.cli
    import zns.config

    cfg = workdir / "simulate.cfg"
    cfg.write_text(config_text(config))
    if zns.config.load_config(cfg) != config:
        raise ValueError(f"{cfg} does not parse back to the intended configuration")
    argv = [
        "simulate", "--config", str(cfg), "--out", str(workdir / "out"),
        "--snapshot-every", repr(w.snapshot_every_steps * w.h), "--quiet",
    ]
    return lambda: zns.cli.main(argv)
