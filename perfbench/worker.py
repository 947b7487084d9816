"""One experiment call in a fresh process: set up, time the call, check the outputs.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SPOT_CHECK WORKDIR OUTDIR

Prints one JSON object as its last line.  ``ready`` is the
``time.monotonic()`` reading once the call is set up, so the parent can
compute set-up time from the moment it started this process.  The
reference kernel of ``hostspeed.py`` runs right before and right after the
call, on the same vCPU; ``slowdown`` is the mean of the two readings and
``setup_slowdown`` the first one, taken right after set-up.
Outputs of the experiment go to WORKDIR; with TRACE = 1 the spans are
written to OUTDIR.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracing
from workloads import WORKLOADS, prepare

ROOT = Path(__file__).resolve().parent.parent


class Capture:
    """Keeps the last recorded state of each trajectory and a digest of each snapshot.

    Hooks ``record_state`` and ``write_snapshot`` as imported into
    ``zns.harness``; it times nothing, so it is installed on untraced runs too.
    """

    def __init__(self, patches: tracing.Patches):
        import zns.harness as harness

        self.finals: list = []
        self.snapshots: list[tuple] = []
        record_state, write_snapshot = harness.record_state, harness.write_snapshot

        def record(w, t, budget=0.0):
            if t == 0.0 or not self.finals:  # the first record of a trajectory
                self.finals.append(w)
            else:
                self.finals[-1] = w
            return record_state(w, t, budget)

        def snapshot(path, f, epsilon, mu, t):
            write_snapshot(path, f, epsilon, mu, t)
            self.snapshots.append((Path(path), _digest(f.coeffs), epsilon, mu, t))

        patches.set(harness, "record_state", record)
        patches.set(harness, "write_snapshot", snapshot)


def _digest(coeffs) -> str:
    import numpy as np

    return hashlib.blake2b(np.ascontiguousarray(coeffs, dtype="<c16").tobytes()).hexdigest()


def _flatten(prefix: str, obj, out: dict) -> None:
    """Numeric leaves of nested dicts and lists; strings and booleans are verdicts, skipped."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(obj, (list, tuple)):
        for k, v in enumerate(obj):
            _flatten(f"{prefix}.{k}", v, out)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)


def _record_outputs(w, record, capture: Capture) -> tuple[dict, list[str]]:
    from zns.diagnostics import CSV_COLUMNS

    values: dict[str, float] = {}
    problems: list[str] = []
    _flatten("summary", record.summary, values)
    for name, points in record.curves.items():
        values[f"curve.{name}.final"] = float(points[-1][1])
    for label, rows in record.series.items():
        for col in CSV_COLUMNS:
            if col != "budget_residual":
                values[f"final.{label}.{col}"] = float(getattr(rows[-1], col))
        if not all(math.isfinite(r.budget_residual) for r in rows):
            problems.append(f"{label}: non-finite budget residual")
    trajectories = len(w.epsilons) * w.n_seeds if w.kind == "sweep" else 1
    if len(capture.finals) != trajectories:
        problems.append(f"captured {len(capture.finals)} final states, expected {trajectories}")
    for k, f in enumerate(capture.finals):
        problems += checks.state_problems(f"final state {k}", f)
    return values, problems


def _simulate_outputs(w, exit_code, capture: Capture, workdir: Path) -> tuple[dict, list[str]]:
    from zns.lattice import read_snapshot

    if exit_code != 0:
        return {}, [f"zns simulate exited with code {exit_code}"]
    out = workdir / "out"
    values: dict[str, float] = {}
    problems: list[str] = []
    with open(out / "diagnostics.csv", newline="") as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    expected_rows = w.n_steps // w.record_every + 1
    if len(rows) != expected_rows:
        problems.append(f"diagnostics.csv has {len(rows)} rows, expected {expected_rows}")
    if not all(math.isfinite(r["budget_residual"]) for r in rows):
        problems.append("diagnostics.csv: non-finite budget residual")
    for col, v in rows[-1].items():
        if col != "budget_residual":
            values[f"final.{col}"] = v
    expected_files = w.n_steps // w.snapshot_every_steps + 1
    if len(capture.snapshots) != expected_files:
        problems.append(f"{len(capture.snapshots)} snapshots written, expected {expected_files}")
    for path, digest, eps, mu, t in capture.snapshots:
        f, eps_r, mu_r, t_r = read_snapshot(path)
        if _digest(f.coeffs) != digest or (eps_r, mu_r, t_r) != (eps, mu, t):
            problems.append(f"{path.name} does not read back exactly")
    final, _, _, t_final = read_snapshot(out / "state_final.zns")
    values["final.t"] = t_final
    problems += checks.state_problems("state_final.zns", final)
    if _digest(final.coeffs) != _digest(capture.finals[-1].coeffs):
        problems.append("state_final.zns differs from the last recorded state")
    return values, problems


def execute(name: str, seed: int, trace: bool, spot_check: bool, workdir: Path,
            outdir: Path | None = None) -> dict:
    """Set up, make the experiment call once, and check its outputs."""
    w = WORKLOADS[name]
    patches = tracing.Patches()
    tracer = tracing.Tracer() if trace else None
    started = time.perf_counter()
    import zns
    import zns.cli  # noqa: F401  (imports every layer)

    import_s = time.perf_counter() - started
    src = (ROOT / "src" / "zns").resolve()
    if Path(zns.__file__).resolve().parent != src:
        raise ImportError(f"zns imported from {zns.__file__}, not from {src}")
    try:
        built = time.monotonic()
        kernel = hostspeed.Kernel()
        kernel_s = time.monotonic() - built  # the benchmark's own set-up, not the program's
        capture = Capture(patches)
        if tracer is not None:
            tracing.install_fft(tracer, patches)
            tracing.install_zns(tracer, patches)
        call = prepare(w, seed, workdir)

        result, problems = None, []
        ready = time.monotonic() - kernel_s
        readings = [kernel.measure()]
        cpu0, t0 = time.process_time(), time.perf_counter()
        span = tracer.open(tracing.EXPERIMENT) if tracer is not None else None
        try:
            result = call()
        except Exception as e:  # BlowUpError or any other failure of the call
            problems.append(f"experiment raised {type(e).__name__}: {e}")
        finally:
            if tracer is not None:
                tracer.close(span)
        run_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        readings.append(kernel.measure())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        values: dict[str, float] = {}
        violations: list[str] = []
        if not problems:
            if w.kind == "simulate":
                values, found = _simulate_outputs(w, result, capture, workdir)
            else:
                values, found = _record_outputs(w, result, capture)
                violations = list(result.violations)
            problems += found
        if spot_check:
            problems += checks.oracle_spot_check(seed)
        out = {
            "ok": not problems, "problems": problems, "ready": ready, "import_s": import_s,
            "run_s": run_s, "slowdown": hostspeed.slowdown(readings), "speed_readings": readings,
            "setup_slowdown": hostspeed.slowdown(readings[:1]),
            "cpu_s": cpu_s, "rss_mb": rss_mb, "steps": w.steps,
            "values": values, "violations": violations,
        }
        if tracer is not None:
            layers = tracing.layer_metrics(tracer, span)
            traced_steps = layers["stepper.step.calls"] + layers["stepper.tangent.calls"]
            if traced_steps != w.steps:
                problems.append(f"traced {traced_steps:g} steps, expected {w.steps}")
                out["ok"] = False
            out["layers"] = layers
            if outdir is not None:
                tracer.write_csv(outdir / f"spans-{name}.csv")
        return out
    finally:
        patches.restore()


def main(argv: list[str]) -> int:
    name, seed, trace, spot_check, workdir, outdir = argv
    sys.path.insert(0, str(ROOT / "src"))
    result = execute(name, int(seed), trace == "1", spot_check == "1", Path(workdir), Path(outdir))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
