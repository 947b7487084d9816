"""Self-test of the benchmark: exact counts, the output check, and the output of ``run.py``.

    python3 -m pytest -q perfbench

Takes about a minute.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["workloads"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(name: str, path: Path) -> tuple[dict, list[dict]]:
    path.mkdir()
    result = worker.execute(name, DEFAULT_SEED, True, False, path, path)
    with open(path / f"spans-{name}.csv", newline="") as fh:
        return result, list(csv.DictReader(fh))


def test_exact_counts_repeat_between_runs(tmp_path):
    w = WORKLOADS["contraction-64"]
    first, spans = _traced(w.name, tmp_path / "a")
    second, _ = _traced(w.name, tmp_path / "b")
    assert first["ok"] and second["ok"], first["problems"] + second["problems"]
    exact = [k for k in first["layers"] if "calls" in k or k.endswith(("bytes", "points_per_step"))]
    assert {k: first["layers"][k] for k in exact} == {k: second["layers"][k] for k in exact}

    layers = first["layers"]
    assert layers["stepper.step.calls"] == 2 * w.n_steps
    assert layers["stepper.tangent.calls"] == w.n_steps
    # 4 advection calls per base step and 8 per tangent step.
    assert round(layers["operators.advect.calls_per_step"] * w.steps) == 4 * 2 * w.n_steps + 8 * w.n_steps
    # 5 transforms per advection call with the complex-FFT kernel of this commit.
    names = {row["index"]: row["name"] for row in spans}
    per_advect: dict[str, int] = {}
    for row in spans:
        if row["name"] == "lattice.fft" and names.get(row["parent"]) == "operators.advect":
            per_advect[row["parent"]] = per_advect.get(row["parent"], 0) + 1
    advects = [i for i, n in names.items() if n == "operators.advect"]
    assert len(advects) == 16 * w.n_steps
    assert {per_advect.get(i, 0) for i in advects} == {5}
    # Three trajectories: w1, w2 and the tangent.
    assert {row["trajectory"] for row in spans if row["name"] == "stepper.step"} | {
        row["trajectory"] for row in spans if row["name"] == "stepper.tangent"} == {"1", "2", "3"}


def test_transforms_are_counted_however_they_are_named(monkeypatch):
    import tracing
    import zns.operators

    rfft2, fft2 = np.fft.rfft2, np.fft.fft2
    monkeypatch.setattr(zns.operators, "rfft2", rfft2, raising=False)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install_fft(tracer, patches)
    try:
        zns.operators.rfft2(np.zeros((8, 8)))
        np.fft.fft2(np.zeros((8, 8)))
    finally:
        patches.restore()
    assert tracer.name == ["lattice.fft", "lattice.fft"]
    assert [tracer.amount[0], tracer.amount[1]] == [32.0, 64.0]  # real transforms count half
    assert zns.operators.rfft2 is rfft2 and np.fft.rfft2 is rfft2 and np.fft.fft2 is fft2


def _broken_advect(dealias: bool, v_term: bool):
    """The advection kernel without the 2/3 mask, or without its v.grad term."""
    from zns.operators import _grid, _spec

    def advect(d, A, B):
        ug = _grid(d, 1j * d.ky * d.inv_ksq * A)
        vg = _grid(d, -1j * d.kx * d.inv_ksq * A)
        bxg = _grid(d, 1j * d.kx * B)
        byg = _grid(d, 1j * d.ky * B)
        out = _spec(d, ug * bxg + vg * byg if v_term else ug * bxg)
        if dealias:
            out *= d.dealias
        out[0, 0] = 0.0
        return out

    return advect


def _run_with_kernel(monkeypatch, tmp_path, kernel, spot_check: bool) -> dict:
    import zns.operators
    import zns.stepper

    monkeypatch.setattr(zns.operators, "_advect_raw", kernel)
    monkeypatch.setattr(zns.stepper, "_advect_raw", kernel)
    return worker.execute("sweep-64", DEFAULT_SEED, False, spot_check, tmp_path)


def test_spot_check_rejects_a_kernel_without_dealiasing(tmp_path, monkeypatch):
    result = _run_with_kernel(monkeypatch, tmp_path, _broken_advect(False, True), True)
    assert any("triad sum" in p for p in result["problems"]), result["problems"]


def test_reference_check_rejects_a_kernel_missing_a_term(tmp_path, monkeypatch):
    result = _run_with_kernel(monkeypatch, tmp_path, _broken_advect(True, False), False)
    assert checks.compare(result["values"], REFERENCE["sweep-64"])


def test_check_admits_reordered_transforms(tmp_path, monkeypatch):
    """One-dimensional passes in the other axis order: same maths, other round-off."""
    ifft, fft = np.fft.ifft, np.fft.fft
    monkeypatch.setattr(np.fft, "ifft2", lambda a: ifft(ifft(a, axis=-2), axis=-1))
    monkeypatch.setattr(np.fft, "fft2", lambda a: fft(fft(a, axis=-2), axis=-1))
    name = "sweep-64"
    result = worker.execute(name, DEFAULT_SEED, False, False, tmp_path)
    assert result["ok"], result["problems"]
    assert result["values"] != REFERENCE[name]  # the round-off did change the outputs
    assert checks.compare(result["values"], REFERENCE[name]) == []


def test_oracle_spot_check_passes():
    assert checks.oracle_spot_check(DEFAULT_SEED) == []


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_every_declared_metric(trace, section):
    proc = _run(ROOT, "--workload", "ensemble-32", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_runner_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "sweep-64", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_kernel_is_never_traced():
    import hostspeed
    import tracing

    kernel = hostspeed.Kernel()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install_fft(tracer, patches)
    try:
        spectral, loop = kernel.measure()
    finally:
        patches.restore()
    assert tracer.name == []
    assert spectral > 0 and loop > 0 and hostspeed.slowdown([(spectral, loop)]) > 0
