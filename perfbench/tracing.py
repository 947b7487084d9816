"""Span tracing installed from outside the package, and the per-layer metrics it yields.

Each span records its name, start and end (``perf_counter_ns``), the index
of the enclosing span and a trajectory id.  Spans stay in memory and are
written out once, at the end of the traced run.

Trajectory ids follow the chain of states: a span whose input state was
returned by a base or tangent step, or by a parity projection, belongs to
that step's trajectory; a step on a state never seen before starts a new
one.  Every other span inherits the id of its enclosing span.

The wrappers replace module and class attributes of ``zns`` (and of
``numpy.fft``/``scipy.fft``); ``Patches.restore`` puts the originals back.
The source of ``zns`` is not touched.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import weakref

# Transform families: complex-to-complex count every point, real transforms half.
_C2C = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_R2C = ("rfft", "rfft2", "rfftn", "ihfft", "ihfft2", "ihfftn")
_C2R = ("irfft", "irfft2", "irfftn", "hfft", "hfft2", "hfftn")
_R2R = ("dct", "idct", "dst", "idst", "dctn", "idctn", "dstn", "idstn")

EXPERIMENT = "harness"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.traj: list = []
        self.amount: dict[int, float] = {}   # computed count per span: points, bytes, drift
        self._stack = [-1]
        self._chain: dict[int, tuple] = {}   # id(coeffs) -> (weakref, trajectory)
        self._n_traj = 0

    def open(self, name: str, traj=None) -> int:
        i = len(self.name)
        parent = self._stack[-1]
        if traj is None and parent >= 0:
            traj = self.traj[parent]
        self.name.append(name)
        self.parent.append(parent)
        self.traj.append(traj)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None, state: int | None = None, starts: bool = False):
        """``fn`` inside a span; ``after(i, args, out)`` may annotate span ``i``.

        With ``state`` set, the span takes the trajectory of the state passed
        as ``args[state]`` (a new trajectory if ``starts`` and the state is
        unknown), and a state it returns continues that trajectory.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            traj = None if state is None else self._trajectory(args[state].coeffs, starts)
            i = self.open(name, traj)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if traj is not None:
                new = out[0] if isinstance(out, tuple) else out
                if hasattr(new, "coeffs"):
                    key = id(new.coeffs)
                    drop = lambda _, key=key: self._chain.pop(key, None)  # noqa: E731
                    self._chain[key] = (weakref.ref(new.coeffs, drop), traj)
            if after is not None:
                after(i, args, out)
            return out

        return traced

    def _trajectory(self, coeffs, starts: bool):
        entry = self._chain.get(id(coeffs))
        if entry is not None and entry[0]() is coeffs:
            return entry[1]
        if not starts:
            return None
        self._n_traj += 1
        return self._n_traj

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,trajectory,amount\n")
            for i, name in enumerate(self.name):
                traj = "" if self.traj[i] is None else self.traj[i]
                fh.write(f"{i},{name},{self.start[i]},{self.end[i]},{self.parent[i]},"
                         f"{traj},{self.amount.get(i, '')}\n")


def install_fft(tracer: Tracer, patches: Patches) -> None:
    """Wrap every transform of ``numpy.fft`` and, if imported, ``scipy.fft``.

    Call after importing ``zns``: transform names that its modules bound at
    import time (``from scipy.fft import rfft2``) are wrapped as well, and
    nothing the package does not use is imported.
    """
    import numpy as np
    import numpy.fft  # numpy loads it lazily, on first use

    def points(kind):
        def after(i, args, out):
            if kind == "c2c":
                tracer.amount[i] = float(np.size(out))
            elif kind == "c2r":
                tracer.amount[i] = np.size(out) / 2.0
            else:
                tracer.amount[i] = np.size(args[0]) / 2.0
        return after

    wrapped = {}  # id(original) -> (original, wrapper)
    for module in (sys.modules.get("numpy.fft"), sys.modules.get("scipy.fft")):
        for kind, names in (("c2c", _C2C), ("r2c", _R2C), ("c2r", _C2R), ("r2r", _R2R)):
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is not None:
                    if id(fn) not in wrapped:
                        wrapped[id(fn)] = (fn, tracer.wrap(fn, "lattice.fft", points(kind)))
                    patches.set(module, fname, wrapped[id(fn)][1])
    for name, module in list(sys.modules.items()):
        if name == "zns" or name.startswith("zns."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    patches.set(module, attr, wrapped[id(value)][1])


def install_zns(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of each layer of ``zns``."""
    import zns.cli
    import zns.config
    import zns.harness
    import zns.lattice
    import zns.stepper
    from zns.forcing import Forcing
    from zns.harness import ExperimentConfig
    from zns.stepper import Stepper

    def drift(i, args, out):
        tracer.amount[i] = zns.lattice.parity_error(args[0])

    def file_bytes(i, args, out):
        tracer.amount[i] = float(os.path.getsize(args[0]))

    w = tracer.wrap
    patches.set(Stepper, "step_with_stages",
                w(Stepper.step_with_stages, "stepper.step", state=1, starts=True))
    patches.set(Stepper, "tangent_step",
                w(Stepper.tangent_step, "stepper.tangent", state=1, starts=True))
    patches.set(Stepper, "__init__", w(Stepper.__init__, "stepper.init"))
    patches.set(zns.stepper, "_advect_raw", w(zns.stepper._advect_raw, "operators.advect"))
    patches.set(Forcing, "__call__", w(Forcing.__call__, "forcing.eval"))
    patches.set(ExperimentConfig, "__post_init__",
                w(ExperimentConfig.__post_init__, "harness.config"))
    h = zns.harness
    patches.set(h, "record_state", w(h.record_state, "diagnostics.record", state=0))
    patches.set(h, "budget_residual", w(h.budget_residual, "stepper.budget", state=1))
    patches.set(h, "project_parity", w(h.project_parity, "lattice.parity", drift, state=0))
    patches.set(h, "write_snapshot",
                w(h.write_snapshot, "lattice.snapshot", file_bytes, state=1))
    patches.set(h, "write_diagnostics_csv",
                w(h.write_diagnostics_csv, "harness.csv", file_bytes))
    load = w(zns.config.load_config, "config.load")
    patches.set(zns.config, "load_config", load)
    patches.set(zns.cli, "load_config", load)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[k]


def layer_metrics(tracer: Tracer, experiment: int) -> dict[str, float]:
    """Per-layer numbers of one traced experiment call (span index ``experiment``).

    Configuration spans are summed over the whole process, because the
    configuration is built before the experiment call; every other number
    covers the experiment call only.
    """
    n = len(tracer.name)
    dur = [(tracer.end[i] - tracer.start[i]) * 1e-9 for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += dur[i]
    t0, t1 = tracer.start[experiment], tracer.end[experiment]
    inside: dict[str, list[int]] = {}
    for i in range(n):
        if i != experiment and t0 <= tracer.start[i] and tracer.end[i] <= t1:
            inside.setdefault(tracer.name[i], []).append(i)
    def spans(name):
        return inside.get(name, [])

    def total(idx):
        return sum(dur[i] for i in idx)

    def self_time(idx):
        return sum(dur[i] - child[i] for i in idx)

    def ms(idx, q):
        return _quantile([dur[i] * 1e3 for i in idx], q)

    # Only outermost transforms count: one library transform may call another.
    fft = [i for i in spans("lattice.fft")
           if tracer.parent[i] < 0 or tracer.name[tracer.parent[i]] != "lattice.fft"]
    step, tangent, advect = spans("stepper.step"), spans("stepper.tangent"), spans("operators.advect")
    steps = len(step) + len(tangent)
    per_step = 1.0 / steps if steps else 0.0
    parity, snapshot, csv = spans("lattice.parity"), spans("lattice.snapshot"), spans("harness.csv")
    metrics = {
        "lattice.fft.calls_per_step": len(fft) * per_step,
        "lattice.fft.points_per_step": sum(tracer.amount[i] for i in fft) * per_step,
        "lattice.fft.s": total(fft),
        "lattice.parity.calls": float(len(parity)),
        "lattice.parity.s": total(parity),
        "lattice.parity.drift_max": max((tracer.amount[i] for i in parity), default=0.0),
        "lattice.snapshot.calls": float(len(snapshot)),
        "lattice.snapshot.s": total(snapshot),
        "lattice.snapshot.bytes": sum(tracer.amount[i] for i in snapshot),
        "operators.advect.calls_per_step": len(advect) * per_step,
        "operators.advect.self_s": self_time(advect),
        "operators.advect.ms_p50": ms(advect, 0.5),
        "operators.advect.ms_p99": ms(advect, 0.99),
        "forcing.eval.calls": float(len(spans("forcing.eval"))),
        "forcing.eval.s": total(spans("forcing.eval")),
        "stepper.step.calls": float(len(step)),
        "stepper.step.self_s": self_time(step),
        "stepper.step.ms_p50": ms(step, 0.5),
        "stepper.step.ms_p99": ms(step, 0.99),
        "stepper.tangent.calls": float(len(tangent)),
        "stepper.tangent.self_s": self_time(tangent),
        "stepper.tangent.ms_p50": ms(tangent, 0.5),
        "stepper.budget.calls": float(len(spans("stepper.budget"))),
        "stepper.budget.s": total(spans("stepper.budget")),
        "stepper.init.s": total(spans("stepper.init")),
        "diagnostics.record.calls": float(len(spans("diagnostics.record"))),
        "diagnostics.record.s": total(spans("diagnostics.record")),
        "harness.self_s": dur[experiment] - child[experiment],
        "harness.csv.s": total(csv),
        "harness.csv.bytes": sum(tracer.amount[i] for i in csv),
        "harness.config.s": total(i for i in range(n) if tracer.name[i] == "harness.config"),
        "config.load.s": total(i for i in range(n) if tracer.name[i] == "config.load"),
    }
    return {k: float(v) for k, v in metrics.items()}
