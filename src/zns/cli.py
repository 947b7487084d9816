"""Command-line entry points.

Exit codes: 0 success, 1 invalid configuration or usage, 2 numerical
blow-up, 3 failed property or theorem check (data is still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
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


def _add_common(p: argparse.ArgumentParser, needs_config: bool) -> None:
    if needs_config:
        p.add_argument("--config", required=True, type=Path, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--resolution", type=int, default=None, help="override N1 = N2 = RESOLUTION"
        )
    p.add_argument("--out", type=Path, default=Path("zns_out"), help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zns",
        description="Pseudo-spectral beta-plane vorticity solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="single run: snapshots plus diagnostics CSV")
    _add_common(p, needs_config=True)
    p.add_argument("--epsilon", type=float, default=None, help="run at this epsilon")
    p.add_argument("--resume", type=Path, default=None, help="resume from a ZNS1 snapshot")
    p.add_argument("--snapshot-every", type=float, default=None, metavar="T")

    p = sub.add_parser("sweep-epsilon", help="attenuation scaling across the epsilon list")
    _add_common(p, needs_config=True)
    p.add_argument("--seeds", type=int, default=1, help="number of initial-data seeds")

    p = sub.add_parser("contraction", help="two-trajectory and tangent contraction test")
    _add_common(p, needs_config=True)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("steady-residual", help="first-order steady-state residual sweep")
    _add_common(p, needs_config=True)

    p = sub.add_parser("triad-check", help="exhaustive zonal-triad identity scan")
    _add_common(p, needs_config=False)
    p.add_argument("--max-k", type=int, default=16)
    p.add_argument("--l1", type=float, default=2.0 * np.pi)
    p.add_argument("--l2", type=float, default=2.0 * np.pi)

    p = sub.add_parser("agmon-check", help="sup-norm inequality ensemble")
    _add_common(p, needs_config=False)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--resolution", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constant", type=float, default=1.0, help="candidate constant")

    return parser


def _say(args, *message) -> None:
    if not args.quiet:
        print(*message)


def _report_violations(args, violations) -> int:
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
        lambda config, args: simulate(config, args.out, epsilon=args.epsilon,
                                      resume_from=args.resume,
                                      snapshot_every=args.snapshot_every),
        lambda s, args: [f"finished at t={s['t_final']:g}; outputs in {args.out}"],
    ),
    "sweep-epsilon": (
        lambda config, args: run_epsilon_sweep(config, n_seeds=args.seeds, out_dir=args.out),
        _sweep_lines,
    ),
    "contraction": (
        lambda config, args: run_contraction_test(config, epsilon=args.epsilon,
                                                  out_dir=args.out),
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
    overrides = {"seed": args.seed}
    if args.resolution is not None:
        overrides["n1"] = args.resolution
        overrides["n2"] = args.resolution
    run, lines = _EXPERIMENTS[args.command]
    record = run(load_config(args.config, overrides), args)
    for line in lines(record.summary, args):
        _say(args, line)
    return _report_violations(args, record.violations)


def cmd_triads(args) -> int:
    domain = Domain(L1=args.l1, L2=args.l2, N1=4 * args.max_k, N2=4 * args.max_k)
    reports = triad_scan(domain, args.max_k)
    write_triad_csv(args.out / "triads.csv", reports)
    worst = max(r.residual for r in reports)
    tol = 1e-10 * domain.area
    _say(args, f"{len(reports)} triads scanned, max residual {worst:.3e} "
               f"(tolerance {tol:.3e})")
    if worst >= tol:
        print(f"PROPERTY-VIOLATION: triad residual {worst:.3e} >= {tol:.3e}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_agmon(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
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
        bound = report.low_sum + report.high_sum
        if report.lhs > bound * (1.0 + 1e-12):
            chain_ok = False
    _say(args, f"{args.samples} samples, max ratio {worst:.4f} "
               f"(candidate constant {args.constant:g})")
    if worst > args.constant or not chain_ok:
        print(
            f"PROPERTY-VIOLATION: max ratio {worst:.4f} exceeds {args.constant:g}"
            if worst > args.constant
            else "PROPERTY-VIOLATION: partial-sum chain broken",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


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
    except (ConfigError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
