"""Experiment orchestration: epsilon sweeps, contraction tests, steady sweeps.

Long-time statements are operationalized with a spin-up of ten dissipative
e-folds (T_spin = 10/nu, nu = c0^2 mu) followed by a measurement window
[T_spin, T_end]; the choice is recorded in every summary.  Each summary is a
pure function of the series and config that a RunRecord holds, and of a
sweep's seeds or a steady sweep's rows, which only its summary keeps.  Failed
theorem checks are collected as violation strings in the record (and mapped
to a nonzero exit code by the CLI); they never abort data capture.  Every
output file of an experiment is written here, before the experiment returns;
a blow-up still writes the series taken before it, and is then raised again.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    band_norm,
    first_order_flow,
    record_state,
    sobolev_norm,
    steady_residual,
    approx_steady_state,
)
from .forcing import Forcing, ForcingSpec
from .lattice import (
    Domain,
    OddBand,
    SpectralField,
    _atomic_open,
    _require_finite,
    norm,
    parity_error,
    project_parity,
    project_reality,
    random_field,
    read_snapshot,
    reality_error,
    write_snapshot,
)
from .operators import TriadReport, velocity
from .stepper import BlowUpError, SimConfig, Stepper, budget_residual

EPS_FLOOR = 100.0 * np.finfo(float).eps
_STEP_TOL = 1e-9  # relative tolerance of a whole step count: under half a step below 5e8


@dataclass(frozen=True)
class Tolerances:
    """Thresholds for the theorem checks and run validation."""

    slope_min: float = 0.8          # minimum log-log slope of sup|fast|^2 vs eps
    rate_factor: float = 0.5        # contraction rate must exceed rate_factor * nu
    seed_spread: float = 0.10       # max relative spread of sup|fast|^2 across seeds
    bound_spread: float = 0.20      # max relative spread of the enstrophy-bound constant
    steady_tol: float = 1e-5        # end-state RHS norm below this counts as converged
    min_tail_samples: int = 50      # required samples for an exponential-rate fit
    cfl_max: float = 0.5            # advective CFL ceiling used to validate h
    monotone_slack: float = 1e-6    # relative slack in monotonicity comparisons

    def __post_init__(self):
        _require_finite(**asdict(self))
        if self.min_tail_samples < 2:  # a rate fit needs two points
            raise ValueError(f"min_tail_samples must be >= 2, got {self.min_tail_samples}")
        # A negative bound or slack fails every run; slope_min and rate_factor are signed.
        for name in ("seed_spread", "bound_spread", "steady_tol", "monotone_slack"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.cfl_max <= 0:
            raise ValueError(f"cfl_max must be positive, got {self.cfl_max}")

@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment family."""

    domain: Domain
    mu: float
    epsilons: tuple[float, ...]
    forcing: ForcingSpec
    h: float
    t_end: float
    t_spin: float | None = None
    seed: int = 0
    omega0_norm: float = 1.0
    record_every: int = 10
    blowup_threshold: float = SimConfig.blowup_threshold
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        _require_finite(mu=self.mu, epsilons=self.epsilons, h=self.h, t_end=self.t_end,
                        t_spin=0.0 if self.t_spin is None else self.t_spin,
                        omega0_norm=self.omega0_norm, blowup_threshold=self.blowup_threshold)
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if self.omega0_norm < 0:  # a negative target only flips the field's sign
            raise ValueError(f"omega0_norm must be non-negative, got {self.omega0_norm}")
        if not self.epsilons:
            raise ValueError("at least one epsilon is required")
        for i, e in enumerate(self.epsilons):  # a member's label names its output files
            if not e > 0:
                raise ValueError(f"epsilons must be positive, got {e!r}")
            for other in self.epsilons[:i]:
                if _label(other, 0) == _label(e, 0):
                    raise ValueError(f"epsilons {other!r} and {e!r} share the label eps={e:g}")
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h!r}")
        if self.t_spin is None:
            object.__setattr__(self, "t_spin", 10.0 / self.nu)
        if not (self.t_end > self.t_spin > 0):
            raise ValueError(f"t_spin must be in (0, t_end={self.t_end!r}), got {self.t_spin!r}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.sim_config(self.epsilons[0])  # refuses a blowup_threshold <= 0, as a run would
        with np.errstate(over="ignore", invalid="ignore"):  # a NaN estimate is refused below
            vmax = self.estimated_max_speed()
        dx = min(self.domain.L1 / self.domain.N1, self.domain.L2 / self.domain.N2)
        cfl = vmax * self.h / dx
        if not cfl <= self.tolerances.cfl_max:  # also true for NaN
            raise ValueError(
                f"h={self.h} violates the CFL estimate: v_est={vmax:.3g}, "
                f"CFL={cfl:.3g} > {self.tolerances.cfl_max}"
            )

    @property
    def nu(self) -> float:
        """Dissipative rate nu = c0^2 mu."""
        return self.domain.c0**2 * self.mu

    def estimated_max_speed(self) -> float:
        """A priori speed scale: first-order steady flow plus initial data."""
        f0 = Forcing(self.forcing, self.domain)(0.0)
        steady_speed = velocity(first_order_flow(f0, self.mu, max(self.epsilons))).max_speed()
        return steady_speed + self.omega0_norm / self.domain.c0

    def sim_config(self, epsilon: float) -> SimConfig:
        """Stepper settings at ``epsilon``; ValueError unless it is one of ``epsilons``."""
        if epsilon not in self.epsilons:
            raise ValueError(f"epsilon={epsilon!r} is not one of the config's epsilons "
                             f"{self.epsilons}")
        return SimConfig(epsilon=epsilon, mu=self.mu, blowup_threshold=self.blowup_threshold)


def config_hash(config: ExperimentConfig) -> str:
    """Stable hash of the experiment description."""

    def default(o):
        if isinstance(o, complex):
            return [o.real, o.imag]
        raise TypeError(f"unserializable {o!r}")

    payload = json.dumps(asdict(config), sort_keys=True, default=default)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """The config that ran, its captured series and curves, and the summary and
    violations of its ``summarize_*`` function, which reads those fields, and also
    a sweep's seeds or a steady sweep's rows, which only ``summary`` holds."""

    kind: str
    config: ExperimentConfig
    series: dict[str, list[DiagnosticsRecord]]
    summary: dict
    violations: list[str]
    curves: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)


def initial_state(domain: Domain, seed: int, norm_target: float) -> SpectralField:
    """Reproducible random initial vorticity.

    Odd in y, amplitude ~ |k|^-1 (energy spectrum ~ |k|^-2), supported at
    integer radius <= min(N1, N2)/4, scaled to the requested L2 norm.
    """
    rng = np.random.default_rng(seed)
    kmax = min(domain.N1, domain.N2) / 4.0
    return random_field(domain, rng, kmax=kmax, slope=-1.0, norm_target=norm_target)


def _step_range(h: float, t0: float, t_end: float) -> tuple[int, int]:
    """The index of the step ending at t0 and the number of steps to t_end; ValueError unless
    t0 and t_end - t0 are whole, non-negative numbers of steps of h and t_end / h < 5e8."""
    if t_end / h >= 0.5 / _STEP_TOL:
        raise ValueError(f"t_end={t_end!r} is {t_end / h:.3g} steps of h={h!r}; a run must "
                         f"take fewer than {0.5 / _STEP_TOL:.0e}")
    n0 = round(t0 / h)
    if n0 < 0 or abs(t0 / h - n0) > _STEP_TOL * max(n0, 1):
        raise ValueError(f"start time t0={t0!r} is not a whole number >= 0 of steps of h={h!r}")
    n = (t_end - t0) / h
    if n < -_STEP_TOL:
        raise ValueError(f"t_end={t_end!r} is before the start time t0={t0!r}")
    n_steps = round(n)
    if abs(n - n_steps) > _STEP_TOL * max(n_steps, 1):
        raise ValueError(
            f"t_end - t0 = {t_end - t0!r} is not a whole number of steps of h={h!r}"
        )
    return n0, n_steps


def integrate(
    stepper: Stepper,
    forcing: Forcing | None,
    w0: SpectralField,
    t0: float,
    t_end: float,
    record_every: int = ExperimentConfig.record_every,
    tangent: SpectralField | None = None,
    partner: SpectralField | None = None,
    observe: Callable | None = None,
    records: list[DiagnosticsRecord] | None = None,
) -> tuple[SpectralField, list[DiagnosticsRecord]]:
    """Advance one trajectory from t0 to t_end; every experiment runs through here.

    Diagnostics of ``w`` (with the enstrophy-budget residual of the step) are
    recorded at t0, every record_every steps and at t_end.  An optional
    ``tangent`` is propagated along ``w`` by the linearized step, and an
    optional ``partner`` trajectory advances in lockstep.  All three must be
    exactly odd in y and held in the 2/3 band, which is checked before the
    first step, and step as ``OddBand``s.  After each step
    ``observe(t, w, tangent, partner, recorded)`` is called with those
    (``.field`` builds a full field), where ``recorded`` says whether a
    diagnostics record was just taken.  The records are appended to
    ``records`` (a new list if None), so a caller keeps those taken before a
    blow-up.

    Steps are counted from t = 0 (step i ends at ``i h``, cadences count i),
    so a resumed run repeats the uninterrupted one bit for bit; t0 and
    t_end - t0 must be whole numbers of steps.  A ``BlowUpError`` of the
    tangent or the partner is marked as theirs.
    """
    h = stepper.h
    n0, n_steps = _step_range(h, t0, t_end)
    w = OddBand.of(w0, "state")
    tangent = None if tangent is None else OddBand.of(tangent, "tangent")
    partner = None if partner is None else OddBand.of(partner, "partner")
    records = [] if records is None else records
    records.append(record_state(w0, t0, budget=0.0))
    for i in range(n0 + 1, n0 + n_steps + 1):
        t_prev, t = (i - 1) * h, i * h
        w_prev = w
        if tangent is None:
            w = stepper.step(w, t_prev, forcing)
        else:
            w, tangent = stepper.step_pair(w, tangent, t_prev, forcing)
        if partner is not None:
            try:
                partner = stepper.step(partner, t_prev, forcing)
            except BlowUpError as e:
                raise BlowUpError(e.t, e.mode, e.magnitude, "partner") from e
        recorded = i % record_every == 0 or i == n0 + n_steps
        if recorded:
            b = budget_residual(w_prev, w, t_prev, h, forcing, stepper.config)
            records.append(record_state(w.field, t, budget=b))
        if observe is not None:
            observe(t, w, tangent, partner, recorded)
    return w.field, records


def _trajectory(config: ExperimentConfig, forcing: Forcing, eps: float, seed: int | None = None,
                *, stepper: Stepper | None = None, w0: SpectralField | None = None,
                t0: float = 0.0, **kwargs) -> tuple[SpectralField, list[DiagnosticsRecord]]:
    """``integrate`` one experiment member to ``config.t_end`` on the epsilon's ``stepper``
    (built if None) from ``w0`` (if None, the seed's initial state); a ``BlowUpError`` is
    raised again naming the epsilon and any seed, after its own mark (tangent, partner)."""
    if stepper is None:
        stepper = Stepper(config.domain, config.sim_config(eps), config.h)
    if w0 is None:
        w0 = initial_state(config.domain, seed, config.omega0_norm)
    try:
        return integrate(stepper, forcing, w0, t0, config.t_end, config.record_every, **kwargs)
    except BlowUpError as e:
        member = f"eps={eps:g}" if seed is None else f"eps={eps:g}, seed={seed}"
        context = f"{e.context} of {member}" if e.context else member
        raise BlowUpError(e.t, e.mode, e.magnitude, context) from e


@contextmanager
def _writes(out_dir: Path | None, write: Callable[[Path], None]):
    """Run the block, then ``write(out_dir)`` what the experiment holds unless ``out_dir``
    is None; a ``BlowUpError`` in the block still writes, and is then raised again."""
    try:
        yield
    except BlowUpError:
        if out_dir is not None:
            write(Path(out_dir))
        raise
    if out_dir is not None:
        write(Path(out_dir))


# ---------------------------------------------------------------------------
# Epsilon sweep
# ---------------------------------------------------------------------------


def _window(records: list[DiagnosticsRecord], t_spin: float) -> list[DiagnosticsRecord]:
    out = [r for r in records if r.t >= t_spin]
    if not out:
        raise ValueError("measurement window is empty; increase t_end")
    return out


def _fit_loglog(xs, ys) -> float:
    if len(list(xs)) < 2 or any(y <= 1e-24 for y in ys):
        return float("nan")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def summarize_epsilon_sweep(
    series: dict[str, list[DiagnosticsRecord]], config: ExperimentConfig, seeds: tuple[int, ...]
) -> tuple[dict, list[str]]:
    """Pure post-processing of a sweep's stored series."""
    tol = config.tolerances
    forcing = Forcing(config.forcing, config.domain)
    grad_inv_f = sobolev_norm(forcing(0.0), -1.0)
    per_eps = []
    violations: list[str] = []
    for eps in config.epsilons:
        row = {"epsilon": eps}
        for seed in seeds:
            window = _window(series[_label(eps, seed)], config.t_spin)
            sup_fast = max(r.fast_sq for r in window)
            sup_h1 = max(r.fast_h1_sq for r in window)
            sup_w = math.sqrt(max(r.enstrophy for r in window))
            entry = {
                "sup_fast_sq": sup_fast,
                "sup_fast_h1_sq": sup_h1,
                "ratio": sup_fast / eps,
                "ratio_h1": sup_h1 / eps,
                "sup_norm": sup_w,
                "bound_constant": sup_w * config.mu / grad_inv_f,
            }
            if seed == seeds[0]:
                row.update(entry)
            row[f"seed{seed}"] = entry
        per_eps.append(row)

    sups = [row["sup_fast_sq"] for row in per_eps]
    sups_h1 = [row["sup_fast_h1_sq"] for row in per_eps]
    slope = _fit_loglog(config.epsilons, sups)
    slope_h1 = _fit_loglog(config.epsilons, sups_h1)

    order = np.argsort(config.epsilons)[::-1]  # decreasing epsilon
    meaningful = all(s > 1e-24 for s in sups)
    if meaningful:
        for a, b in zip(order[:-1], order[1:]):
            r_hi, r_lo = per_eps[a]["ratio"], per_eps[b]["ratio"]
            if r_lo > r_hi * (1.0 + tol.monotone_slack):
                violations.append(
                    "THEOREM-VIOLATION: sup|fast|^2/eps increased from "
                    f"eps={config.epsilons[a]:g} ({r_hi:.3e}) to "
                    f"eps={config.epsilons[b]:g} ({r_lo:.3e})"
                )
        if not math.isnan(slope) and slope < tol.slope_min:
            violations.append(
                f"THEOREM-VIOLATION: sup|fast|^2 slope {slope:.3f} < {tol.slope_min}"
            )
        if not math.isnan(slope_h1) and slope_h1 < tol.slope_min:
            violations.append(
                f"THEOREM-VIOLATION: sup|grad fast|^2 slope {slope_h1:.3f} < {tol.slope_min}"
            )

    if len(seeds) > 1:
        for row in per_eps:
            vals = [row[f"seed{s}"] for s in seeds]
            fast_vals = [v["sup_fast_sq"] for v in vals]
            c_vals = [v["bound_constant"] for v in vals]
            if meaningful and _rel_spread(fast_vals) > tol.seed_spread:
                violations.append(
                    f"THEOREM-VIOLATION: eps={row['epsilon']:g} sup|fast|^2 spread "
                    f"{_rel_spread(fast_vals):.3f} across seeds exceeds {tol.seed_spread}"
                )
            if _rel_spread(c_vals) > tol.bound_spread:
                violations.append(
                    f"THEOREM-VIOLATION: eps={row['epsilon']:g} enstrophy-bound constant spread "
                    f"{_rel_spread(c_vals):.3f} exceeds {tol.bound_spread}"
                )

    summary = {
        "per_epsilon": per_eps,
        "slope": slope,
        "slope_h1": slope_h1,
        "grad_inv_f": grad_inv_f,
        "nu": config.nu,
        "t_spin": config.t_spin,
        "t_spin_rule": "10 dissipative e-folds (10/nu)",
        "seeds": list(seeds),
    }
    return summary, violations


def _rel_spread(vals) -> float:
    m = sum(vals) / len(vals)
    if m == 0:
        return 0.0
    return (max(vals) - min(vals)) / abs(m)


def _label(eps: float, seed: int) -> str:
    return f"eps={eps:g}:seed={seed}"


def run_epsilon_sweep(
    config: ExperimentConfig, n_seeds: int = 1, out_dir: Path | None = None
) -> RunRecord:
    """Integrate each epsilon (and seed), then check the attenuation scaling; with
    ``out_dir`` each member's series is written to ``diagnostics_<label>.csv`` and the
    table to ``summary.csv``.

    A blow-up aborts the sweep naming the offending epsilon and seed, after
    writing the series of the finished members and the records the blown-up
    one took; violated theorem checks are recorded, not raised.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    forcing = Forcing(config.forcing, config.domain)
    seeds = tuple(config.seed + i for i in range(n_seeds))
    series: dict[str, list[DiagnosticsRecord]] = {}

    def write(out):
        for label, records in series.items():
            name = label.replace(":", "_").replace("=", "")
            write_diagnostics_csv(out / f"diagnostics_{name}.csv", records)

    with _writes(out_dir, write):
        for eps in config.epsilons:
            stepper = Stepper(config.domain, config.sim_config(eps), config.h)
            for seed in seeds:
                records = series[_label(eps, seed)] = []
                _trajectory(config, forcing, eps, seed, stepper=stepper, records=records)
    summary, violations = summarize_epsilon_sweep(series, config, seeds)
    if out_dir is not None:
        write_csv(Path(out_dir) / "summary.csv", SWEEP_SUMMARY_COLUMNS, (
            [row[c] for c in SWEEP_SUMMARY_COLUMNS[:5]] + [summary["slope"], summary["slope_h1"]]
            for row in summary["per_epsilon"]
        ))
    return RunRecord("epsilon-sweep", config, series, summary, violations)


# ---------------------------------------------------------------------------
# Contraction test
# ---------------------------------------------------------------------------


def fit_exponential_rate(ts, vals) -> float:
    """Decay rate sigma from a least-squares fit of log(vals) ~ -sigma t."""
    return float(-np.polyfit(ts, np.log(vals), 1)[0])


def summarize_contraction(
    curves: dict[str, list[tuple[float, float]]], config: ExperimentConfig, epsilon: float
) -> tuple[dict, list[str]]:
    tol = config.tolerances
    nu = config.nu
    violations: list[str] = []
    rates = {}
    monotone = {}
    for name in ("distance", "tangent"):
        pts = curves[name]
        tail = [(t, v) for t, v in pts if t >= config.t_spin and v > EPS_FLOOR]
        ts = [t for t, _ in tail]
        vs = [v for _, v in tail]
        monotone[name] = all(
            b <= a * (1.0 + tol.monotone_slack) for a, b in zip(vs[:-1], vs[1:])
        )
        if len(tail) < tol.min_tail_samples:
            rates[name] = float("nan")
            violations.append(
                f"THEOREM-VIOLATION: rate fit rejected: {name} tail has {len(tail)} "
                f"samples above {EPS_FLOOR:.2e} (need {tol.min_tail_samples})"
            )
            continue
        rates[name] = fit_exponential_rate(ts, vs)
        if rates[name] < tol.rate_factor * nu:
            violations.append(
                f"THEOREM-VIOLATION: {name} decay rate {rates[name]:.4f} < "
                f"{tol.rate_factor} * nu = {tol.rate_factor * nu:.4f}"
            )
    if not monotone["distance"]:
        violations.append("THEOREM-VIOLATION: trajectory distance not monotone on the tail")
    summary = {
        "epsilon": epsilon,
        "nu": nu,
        "rate_distance": rates["distance"],
        "rate_tangent": rates["tangent"],
        "monotone_distance_tail": monotone["distance"],
        "t_spin": config.t_spin,
        "t_spin_rule": "10 dissipative e-folds (10/nu)",
    }
    return summary, violations


def run_contraction_test(config: ExperimentConfig, out_dir: Path | None = None) -> RunRecord:
    """Two-trajectory and tangent-propagation contraction measurement at ``epsilons[0]``.

    Integrates trajectories from two seeds (config.seed and the next one)
    plus a tangent perturbation along the first, whose initial value is the
    initial field of seed config.seed + 2, and fits exponential decay rates
    of the trajectory distance and of the tangent norm on the tail; both are
    compared against nu = c0^2 mu.  With ``out_dir`` both curves are written
    to ``contraction.csv``, also the rows taken before a blow-up.
    """
    forcing = Forcing(config.forcing, config.domain)
    if not forcing.is_steady:
        raise ValueError("contraction test requires steady forcing")
    eps = config.epsilons[0]
    w1, w2, phi = (initial_state(config.domain, config.seed + i, config.omega0_norm)
                   for i in range(3))
    distance = [(0.0, norm(w1 - w2))]
    tangent = [(0.0, norm(phi))]

    def observe(t, w1, phi, w2, recorded):
        if recorded:
            distance.append((t, band_norm(config.domain, w1.coeffs - w2.coeffs)))
            tangent.append((t, band_norm(config.domain, phi.coeffs)))

    def write(out):
        write_csv(out / "contraction.csv", ["t", "distance", "tangent"],
                  ((t, d, p) for (t, d), (_, p) in zip(distance, tangent)))

    with _writes(out_dir, write):
        _, records = _trajectory(
            config, forcing, eps, config.seed, w0=w1, tangent=phi, partner=w2, observe=observe
        )
    curves = {"distance": distance, "tangent": tangent}
    return RunRecord("contraction", config, {_label(eps, config.seed): records},
                     *summarize_contraction(curves, config, eps), curves)


# ---------------------------------------------------------------------------
# Steady-state residual sweep
# ---------------------------------------------------------------------------


def summarize_steady_sweep(
    rows: list[dict], config: ExperimentConfig
) -> tuple[dict, list[str]]:
    tol = config.tolerances
    violations = []
    for row in rows:
        if row["end_rhs_norm"] > tol.steady_tol:
            violations.append(
                f"NON-CONVERGED: eps={row['epsilon']:g} end-state RHS norm "
                f"{row['end_rhs_norm']:.3e} > {tol.steady_tol:g}"
            )
    eps = [r["epsilon"] for r in rows]
    res = [r["residual"] for r in rows]
    dist = [r["distance"] for r in rows]
    summary = {
        "per_epsilon": rows,
        "residual_slope": _fit_loglog(eps, res),
        "distance_slope": _fit_loglog(eps, dist),
    }
    return summary, violations


def run_steady_residual_sweep(
    config: ExperimentConfig, out_dir: Path | None = None
) -> RunRecord:
    """Residual of the first-order steady flow, and distance from the
    converged end state, across the epsilon list; with ``out_dir`` the rows
    are written to ``steady_residual.csv``, also those of the epsilons that
    finished before a blow-up."""
    forcing = Forcing(config.forcing, config.domain)
    if not forcing.is_steady:
        raise ValueError("steady-residual sweep requires steady forcing")
    series = {}
    rows = []

    def write(out):
        write_csv(out / "steady_residual.csv", STEADY_COLUMNS,
                  ([row[c] for c in STEADY_COLUMNS] for row in rows))

    with _writes(out_dir, write):
        for eps in config.epsilons:
            w_star = approx_steady_state(forcing, config.mu, eps)
            res = steady_residual(w_star, forcing, config.mu, eps)
            w_end, series[_label(eps, config.seed)] = _trajectory(config, forcing, eps, config.seed)
            rows.append(
                {
                    "epsilon": eps,
                    "residual": res,
                    "distance": norm(w_end - w_star),
                    "end_rhs_norm": steady_residual(w_end, forcing, config.mu, eps),
                }
            )
    return RunRecord("steady-residual", config, series, *summarize_steady_sweep(rows, config))


# ---------------------------------------------------------------------------
# Single run with persistence
# ---------------------------------------------------------------------------


def simulate(config: ExperimentConfig, out_dir: Path, resume_from: Path | None = None,
             snapshot_every: float | None = None) -> RunRecord:
    """Single trajectory at ``epsilons[0]`` with diagnostics CSV and ZNS1 snapshots;
    ``out_dir`` is made when the first file is written.

    With ``resume_from`` the state, time and epsilon are restored from the
    snapshot, whose domain and mu must match the config and whose epsilon must
    be one of the config's, and integration continues to t_end.  A rejected
    snapshot or an off-step t_end is refused before anything is written.
    A blow-up still leaves the diagnostics CSV of the records taken before it.
    """
    if snapshot_every is not None and not snapshot_every > 0:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every!r}")
    forcing = Forcing(config.forcing, config.domain)
    eps = config.epsilons[0]
    t0, w0 = 0.0, None
    if resume_from is not None:
        w0, eps, mu, t0 = read_snapshot(resume_from)
        if w0.domain != config.domain:
            raise ValueError(f"snapshot domain {w0.domain} does not match config {config.domain}")
        if mu != config.mu:
            raise ValueError(f"snapshot mu={mu} does not match config mu={config.mu}")
        if eps not in config.epsilons:
            raise ValueError(f"config epsilon list {config.epsilons} does not match "
                             f"snapshot epsilon={eps}")
        # NaN fails every comparison below, so it is refused first.
        if not np.isfinite(w0.coeffs).all():
            raise ValueError(f"{resume_from}: snapshot has non-finite coefficients")
        # A step reads only the m1 >= 0 half, so the m1 < 0 half must mirror
        # it; the dynamics keep odd parity, so the snapshot must have it too.
        bound = 1e-11 * np.abs(w0.coeffs).max()
        for kind, what, err in (("reality", "a real field", reality_error(w0)),
                                ("parity", "odd in y", parity_error(w0))):
            if err > bound:
                raise ValueError(
                    f"{resume_from}: snapshot is not {what} ({kind} error {err:.3g})"
                )
        # A no-op on a snapshot written here.  Reality first: it makes the real part of the
        # m1 = 0 column even in m2, so the parity projection zeroes it, as an OddBand needs.
        w0 = project_parity(project_reality(w0))
        OddBand.of(w0, f"{resume_from}: snapshot")  # a step's own check, naming the file
    out = Path(out_dir)

    observe = None
    if snapshot_every is not None:
        # The k-th snapshot is at k * snapshot_every, also after a resume (no drifting sum).
        k = math.floor(t0 / snapshot_every + 1e-9) + 1

        def observe(t, w, tangent, partner, recorded):
            nonlocal k
            if t + 1e-12 >= k * snapshot_every:
                write_snapshot(out / f"state_t{t:.6f}.zns", w.field, eps, config.mu, t)
                k += 1

    seed = config.seed if resume_from is None else None  # a resumed state has no seed
    records: list[DiagnosticsRecord] = []
    with _writes(out, lambda out: write_diagnostics_csv(out / "diagnostics.csv", records)):
        w, _ = _trajectory(config, forcing, eps, seed, w0=w0, t0=t0, observe=observe,
                           records=records)
    t_final = records[-1].t
    write_snapshot(out / "state_final.zns", w, eps, config.mu, t_final)
    return RunRecord("simulate", config, {_label(eps, config.seed): records},
                     {"epsilon": eps, "t_final": t_final}, [])


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_csv(path, columns, rows) -> None:
    """Header row, then the ``repr`` of every value of each row."""
    with _atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([repr(v) for v in row] for row in rows)


def write_diagnostics_csv(path, records: list[DiagnosticsRecord]) -> None:
    write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in records))


SWEEP_SUMMARY_COLUMNS = [
    "epsilon", "sup_fast_sq", "ratio", "sup_fast_h1_sq", "ratio_h1", "slope", "slope_h1",
]
STEADY_COLUMNS = ["epsilon", "residual", "distance", "end_rhs_norm"]
TRIAD_COLUMNS = ["j1", "j2", "k1", "k2", "l1", "l2", "Bjkl", "Bkjl", "omega_sum", "residual"]


def write_triad_csv(path, reports: list[TriadReport]) -> None:
    write_csv(path, TRIAD_COLUMNS, (
        (*r.j, *r.k, *r.l, r.bjkl, r.bkjl, r.omega_sum, r.residual) for r in reports
    ))
