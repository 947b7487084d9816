"""The benchmark's correctness gate, in-process: every workload, traced and untraced.

``perfbench/run.py`` marks a run incorrect unless its worker reports no problem and its
values match ``perfbench/reference.json``.  A traced run also checks that the stepper
made one ``step_with_stages`` or ``tangent_step`` call per trajectory step, so a change
that batches steps fails here, not only in the benchmark.  The perfbench modules are
imported as the worker process imports them, from their own directory, and only read.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``worker``, ``checks`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return tuple(importlib.import_module(m) for m in ("worker", "checks", "workloads"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_has_a_reference(perfbench):
    _, _, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == sorted(REFERENCE)


# The untraced run also makes the oracle spot check, as the benchmark's check run does.
@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_workload_passes_the_benchmark_gate(perfbench, name, trace, tmp_path):
    worker, checks, workloads = perfbench
    result = worker.execute(name, workloads.DEFAULT_SEED, trace, not trace, tmp_path, tmp_path)
    assert result["problems"] == []
    assert result["ok"]
    assert checks.compare(result["values"], REFERENCE[name]) == []
