"""Regenerate ``reference.json``: the checked output values of every workload at the default seed.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
compares every later run against these values.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=worker.ROOT) as tmp:
            result = worker.execute(name, DEFAULT_SEED, False, True, Path(tmp))
        if not result["ok"]:
            print(f"{name}: {result['problems']}", file=sys.stderr)
            return 1
        out["workloads"][name] = result["values"]
        print(f"{name}: {len(result['values'])} values")
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
