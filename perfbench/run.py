"""zns benchmark runner: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sweep-64 --seed 0 --seconds 27 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory, never from an installed copy.  Each
experiment call runs in a fresh worker process, one at a time:

1. a check run at the default seed, untimed, whose outputs are compared
   with ``reference.json`` and which also runs the triad-sum oracle spot
   check (it warms the byte-code and file caches as well);
2. timed runs at ``--seed`` until ``--seconds`` have passed.  With
   ``--trace 1`` untraced and traced runs alternate, and the per-layer
   numbers come from the traced ones.

Each worker times a fixed reference kernel (``hostspeed.py``) right
before and right after its call; the call's wall time is divided by the
host's slowdown over that bracket, and ``run_s`` is the median of the
normalised times.  Set-up times are divided by the first reading, taken
right after set-up.  The raw times stay in the run record.

Every timed run is checked: symmetric final states, finite budget
residuals, snapshots that read back exactly, and values that match the
reference (default seed) or the first timed run (any other seed).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed /
attempted`` is the failed fraction.  A run record with the samples,
versions and verdicts is written to ``.bench_out/``.  Scratch files go to
``.bench_tmp/`` and are removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "zns"
CHILD_TIMEOUT_S = 60
MIN_RUNS = 3          # timed runs of each kind (untraced, traced) per benchmark run
LAST_START_S = 120    # start no worker after this, so a run ends within 180 s


def spawn(name: str, seed: int, trace: bool, spot_check: bool, tmp: Path, outdir: Path) -> dict:
    """Run one worker process; add its set-up time, measured from the spawn."""
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed), str(int(trace)),
           str(int(spot_check)), str(workdir), str(outdir)]
    env = dict(os.environ, TMPDIR=str(tmp))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"worker timed out after {CHILD_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip()[-2000:]
        return {"ok": False, "problems": [f"worker exited {proc.returncode} without a result: {tail}"]}
    result["setup_s"] = result["ready"] - started
    return result


def mark(run: dict, problems: list[str]) -> None:
    if problems:
        run["ok"] = False
        run["problems"] = run.get("problems", []) + problems


def run_record(args, check: dict, untraced: list, traced: list, failed: int, attempted: int) -> dict:
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_commit": commit, "src_zns_sha256": digest.hexdigest(), "src_zns_lines": lines,
        "cpu_model": cpu_model, "cpu_count": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "steps_per_call": {k: v.steps for k, v in WORKLOADS.items()},
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "theorem_violations_check_run": check.get("violations", []),
        "problems": {f"run{k}": r["problems"] for k, r in enumerate([check] + untraced + traced)
                     if r.get("problems")},
        "untraced": [{k: r.get(k) for k in ("run_s", "slowdown", "speed_readings", "setup_s", "setup_slowdown",
                                            "rss_mb", "cpu_s", "import_s")} for r in untraced],
        "traced": [{k: r.get(k) for k in ("run_s", "slowdown", "layers")} for r in traced],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "__init__.py").is_file():
        print(f"error: {SRC} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())["workloads"][args.workload]

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        begin = time.monotonic()
        check = spawn(args.workload, DEFAULT_SEED, False, True, tmp, outdir)
        if check["ok"]:
            mark(check, checks.compare(check["values"], reference))
        untraced: list[dict] = []
        traced: list[dict] = []
        deadline = time.monotonic() + args.seconds
        last = 0.0
        while time.monotonic() - begin < LAST_START_S:
            enough = len(untraced) >= MIN_RUNS and (not args.trace or len(traced) >= MIN_RUNS)
            # Stop when the next run would end nearer after the deadline than before it.
            if enough and time.monotonic() + last / 2 >= deadline:
                break
            trace = bool(args.trace) and len(traced) < len(untraced)
            started = time.monotonic()
            run = spawn(args.workload, args.seed, trace, False, tmp, outdir)
            last = time.monotonic() - started
            (traced if trace else untraced).append(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    timed = untraced + traced
    if args.seed == DEFAULT_SEED:
        expected = reference
    else:
        expected = next((r["values"] for r in timed if r["ok"]), None)
    for run in timed:
        if run["ok"] and expected is not None:
            mark(run, checks.compare(run["values"], expected))
    everything = [check] + timed
    attempted = len(everything)
    failed = sum(not r["ok"] for r in everything)

    def sample(runs):
        good = [r for r in runs if r["ok"]]
        return good or [r for r in runs if "run_s" in r]

    plain, layered = sample(untraced), sample(traced)
    if not plain or (args.trace and not layered):
        print("error: no run produced a measurement", file=sys.stderr)
        for r in everything:
            for p in r.get("problems", []):
                print(f"  {p}", file=sys.stderr)
        return 1
    median = statistics.median
    # Other tenants slow the host down in stretches that can outlast a run,
    # so times are taken at the host's typical speed (hostspeed.py).
    run_s = median(r["run_s"] / r["slowdown"] for r in plain)
    if args.trace:
        values = {key: median(r["layers"][key] for r in layered) for key in layered[0]["layers"]}
        values["cli.import_s"] = median(r["import_s"] for r in plain)
        values["harness.cpu_per_wall"] = median(r["cpu_s"] / r["run_s"] for r in plain)
        values["trace.overhead_frac"] = median(r["run_s"] / r["slowdown"] for r in layered) / run_s - 1.0
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "steps_per_s": {"value": plain[0]["steps"] / run_s, "unit": "1/s"},
            "setup_s": {"value": median(r["setup_s"] / r["setup_slowdown"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": median(r["rss_mb"] for r in plain), "unit": "MB"},
        }

    record = run_record(args, check, untraced, traced, failed, attempted)
    record["metrics"] = metrics
    path = outdir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(layered)} traced runs of {WORKLOADS[args.workload].steps} steps each")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(f"  raw wall time of a call: median {median(r['run_s'] for r in plain):.6g} s at a median "
          f"host slowdown of {median(r['slowdown'] for r in plain):.4g}; raw set-up "
          f"{median(r['setup_s'] for r in plain):.6g} s")
    print(f"  failed_frac = {failed}/{attempted}; theorem violations in the check run: "
          f"{len(check.get('violations', []))}; run record {path.relative_to(ROOT)}")
    for r in everything:
        for p in r.get("problems", []):
            print(f"  problem: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(key: str) -> str:
    if key.endswith("_per_step"):
        return "count/step" if ".calls" in key else "points/step"
    if key.endswith(".bytes"):
        return "B"
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith(("_p50", "_p99")):
        return "ms"
    if key.endswith(".calls"):
        return "count"
    if key.endswith("drift_max"):
        return "coeff"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
