"""Command-line entry points.

Exit codes: 0 success, 1 invalid configuration or usage (including a
non-finite number in a config file or an option) or arrays the host cannot
allocate, 2 numerical blow-up, 3 failed property or theorem check (data is
still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import finite_float, load_config, rename_refusal
from .diagnostics import agmon_check
from .harness import (
    run_contraction_test,
    run_epsilon_sweep,
    run_steady_residual_sweep,
    simulate,
    write_triad_csv,
)
from .lattice import Domain, inner, norm, random_field
from .operators import triad_scan
from .stepper import BlowUpError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOWUP = 2
EXIT_VIOLATION = 3

# Parameter -> the flag that sets it, for the refusals that load_config has not named.
_FLAGS = {"L1": "--l1", "L2": "--l2", "N1": "--resolution", "N2": "--resolution",
          "n_seeds": "--seeds", "snapshot_every": "--snapshot-every"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1; subparsers inherit this class
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, needs_config: bool) -> None:
    if needs_config:
        p.add_argument("--config", required=True, type=Path, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--resolution", type=int, default=None, help="override N1 = N2 = RESOLUTION"
        )
    p.add_argument("--out", type=Path, default=Path("zns_out"), help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress the summary lines")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zns",
        description="Pseudo-spectral beta-plane vorticity solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single run: snapshots plus diagnostics CSV")
    _add_common(p, needs_config=True)
    p.add_argument("--epsilon", type=float, default=None, help="replace the config's epsilons")
    p.add_argument("--resume", type=Path, default=None, help="resume from a ZNS1 snapshot")
    p.add_argument("--snapshot-every", type=finite_float, default=None, metavar="T")

    p = sub.add_parser("sweep-epsilon", help="attenuation scaling across the epsilon list")
    _add_common(p, needs_config=True)
    p.add_argument("--seeds", type=int, default=1, help="number of initial-data seeds")

    p = sub.add_parser("contraction", help="two-trajectory and tangent contraction test")
    _add_common(p, needs_config=True)
    p.add_argument("--epsilon", type=float, default=None, help="replace the config's epsilons")

    p = sub.add_parser("steady-residual", help="first-order steady-state residual sweep")
    _add_common(p, needs_config=True)

    p = sub.add_parser("triad-check", help="exhaustive zonal-triad identity scan")
    _add_common(p, needs_config=False)
    p.add_argument("--max-k", type=int, default=16)
    p.add_argument("--l1", type=float, default=Domain.L1)
    p.add_argument("--l2", type=float, default=Domain.L2)

    p = sub.add_parser("agmon-check", help="sup-norm inequality ensemble")
    _add_common(p, needs_config=False)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--resolution", type=int, default=Domain.N1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constant", type=finite_float, default=1.0, help="candidate constant")

    return parser


def _say(args, *message) -> None:
    if not args.quiet:
        print(*message)


def _report_violations(args, violations) -> int:
    """Print each violation to stderr and return 3 if there is one, else 0; every
    command that finishes its run returns through here."""
    for v in violations:
        print(v, file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


def _sweep_lines(s, args):
    yield f"{'epsilon':>10} {'sup_fast_sq':>14} {'ratio':>12}"
    for row in s["per_epsilon"]:
        yield f"{row['epsilon']:>10g} {row['sup_fast_sq']:>14.6e} {row['ratio']:>12.6e}"
    yield f"slope = {s['slope']:.3f}, slope_h1 = {s['slope_h1']:.3f}"


# Config-driven commands: (run the experiment, the lines it prints from the summary).
_EXPERIMENTS = {
    "simulate": (
        lambda config, args: simulate(config, args.out, resume_from=args.resume,
                                      snapshot_every=args.snapshot_every),
        lambda s, args: [f"finished at t={s['t_final']:g}; outputs in {args.out}"],
    ),
    "sweep-epsilon": (
        lambda config, args: run_epsilon_sweep(config, n_seeds=args.seeds, out_dir=args.out),
        _sweep_lines,
    ),
    "contraction": (
        lambda config, args: run_contraction_test(config, out_dir=args.out),
        lambda s, args: [f"nu = {s['nu']:g}: distance rate {s['rate_distance']:.4f}, "
                         f"tangent rate {s['rate_tangent']:.4f}"],
    ),
    "steady-residual": (
        lambda config, args: run_steady_residual_sweep(config, out_dir=args.out),
        lambda s, args: [f"residual slope {s['residual_slope']:.3f}, "
                         f"distance slope {s['distance_slope']:.3f}"],
    ),
}


def cmd_experiment(args) -> int:
    """Load the config, run the experiment (which writes its outputs), print, report."""
    epsilon = getattr(args, "epsilon", None)  # simulate and contraction have --epsilon
    flags = {"seed": ("--seed", args.seed), "n1": ("--resolution", args.resolution),
             "n2": ("--resolution", args.resolution),
             "epsilon": ("--epsilon", None if epsilon is None else (epsilon,))}
    overrides = {key: flag for key, flag in flags.items() if flag[1] is not None}
    run, lines = _EXPERIMENTS[args.command]
    record = run(load_config(args.config, overrides), args)
    for line in lines(record.summary, args):
        _say(args, line)
    return _report_violations(args, record.violations)


def cmd_triads(args) -> int:
    if args.max_k < 1:
        raise ValueError(f"--max-k must be at least 1, got {args.max_k}")
    try:
        domain = Domain(L1=args.l1, L2=args.l2, N1=4 * args.max_k, N2=4 * args.max_k)
    except ValueError as e:  # N1 = N2 = 4 max_k, so a refused count is the flag's
        if str(e).startswith("N1 "):
            raise ValueError(f"--max-k must be small enough for numpy to index the "
                             f"(4 max_k, 4 max_k) complex array, got {args.max_k}") from None
        raise
    reports = triad_scan(domain, args.max_k)
    write_triad_csv(args.out / "triads.csv", reports)
    worst = max(r.residual for r in reports)
    tol = 1e-10 * domain.area
    _say(args, f"{len(reports)} triads scanned, max residual {worst:.3e} "
               f"(tolerance {tol:.3e})")
    violation = f"PROPERTY-VIOLATION: triad residual {worst:.3e} >= {tol:.3e}"
    return _report_violations(args, [violation] if worst >= tol else [])


def cmd_agmon(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.constant <= 0:  # every sample's ratio would exceed it: a violation by input
        raise ValueError(f"--constant must be positive, got {args.constant:g}")
    domain = Domain(N1=args.resolution, N2=args.resolution)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    chain_ok = True
    for _ in range(args.samples):
        u = random_field(domain, rng, odd_in_y=False)
        v = random_field(domain, rng, odd_in_y=False)
        v = v - u * (inner(u, v) / norm(u) ** 2)
        report = agmon_check(u, v, args.constant)
        worst = max(worst, report.ratio)
        links = ((report.lhs, report.low_sum + report.high_sum),
                 (report.low_sum, report.low_bound), (report.high_sum, report.high_bound))
        chain_ok = chain_ok and all(a <= b * (1.0 + 1e-12) for a, b in links)
    _say(args, f"{args.samples} samples, max ratio {worst:.4f} "
               f"(candidate constant {args.constant:g})")
    if worst > args.constant:  # the only line printed when both checks fail
        violations = [f"PROPERTY-VIOLATION: max ratio {worst:.4f} exceeds {args.constant:g}"]
    else:
        violations = [] if chain_ok else ["PROPERTY-VIOLATION: partial-sum chain broken"]
    return _report_violations(args, violations)


_COMMANDS = {
    **dict.fromkeys(_EXPERIMENTS, cmd_experiment),
    "triad-check": cmd_triads,
    "agmon-check": cmd_agmon,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BlowUpError as e:
        print(f"BLOW-UP: {e}", file=sys.stderr)
        return EXIT_BLOWUP
    except (OSError, ValueError, MemoryError) as e:
        print(f"error: {rename_refusal(e, _FLAGS) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
